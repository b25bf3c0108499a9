// Corpus stand-in for the Chrome-trace view: it reads ledger lines with the
// parser's dispatch idiom but renders only some events, so events it skips
// ("orphan", "meta") are not findings here; stale branches and unknown keys
// are.
#include "util/helper.hpp"

namespace stellaris::report {

void render_one(const Value& ev) {
  const std::string type = str_or(ev, "ev", "");
  if (type == "alpha") {
    num_or(ev, "x", 0.0);
  // expect: ledger-schema
  } else if (type == "gamma") {
    id_or(ev, "bogus", 0);              // the view reads a field nothing sets
  // expect: ledger-schema
  } else if (type == "vanished") {
    str_or(ev, "who", "");              // branch for an event nothing emits
  }
}

}  // namespace stellaris::report
