// Corpus stand-in for the report parser: the same `type == "..."` dispatch
// chain and num_or/str_or/id_or/has/at access idioms the ledger-schema pass
// rebuilds the parser-side contract from.
#include "util/helper.hpp"

namespace stellaris::report {

void analyze_one(const Value& ev) {
  const std::string type = str_or(ev, "ev", "");
  if (type == "alpha") {
    num_or(ev, "x", 0.0);
  // expect: ledger-schema
  } else if (type == "beta") {
    ev.at("req");                       // unconditional: every site needs it
    if (ev.has("ys")) ev.at("ys");      // guarded: optional
    num_or(ev, "ghost", 0.0);           // no emit site sets "ghost"
  // expect: ledger-schema
  } else if (type == "gone") {
    str_or(ev, "who", "");              // branch for an event nothing emits
  // expect: ledger-schema
  } else if (type == "gamma") {
    id_or(ev, "n", 0);                  // set by the emit site
    id_or(ev, "phantom", 0);            // checked integer nothing sets
  }
  // ledger-schema:ignore meta — run-config echo for humans reading the raw
  // JSONL; the report deliberately aggregates nothing from it.
}

}  // namespace stellaris::report
