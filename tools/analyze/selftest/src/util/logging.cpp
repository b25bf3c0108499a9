// Exempt file: log line timestamps may read the wall clock.
namespace stellaris {

void hygiene_log_stamp() { auto t = std::chrono::system_clock::now(); }

}  // namespace stellaris
