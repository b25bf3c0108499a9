// serve-sleep out of scope: the rule covers files directly under
// src/serve/ only, not subdirectories.
namespace stellaris::serve {

void hygiene_nested_sleep() { usleep(100); }

}  // namespace stellaris::serve
