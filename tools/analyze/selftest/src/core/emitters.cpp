// ledger-schema emit-site cases, both builder forms (chained temporary
// and named variable with conditional fields).
#include "util/helper.hpp"

namespace stellaris {

void emit_all(double t, bool cond, Sink* led) {
  // Passing: parsed branch, field set matches.
  obs::LedgerEvent("alpha", t).field("x", 1.0).finish();

  // Passing: named-variable form; "ys" is conditional, which is fine
  // because the parser guards it with has().
  obs::LedgerEvent ev("beta", t);
  ev.field("req", 2);
  if (cond) ev.raw("ys", "[1,2]");
  led->append(std::move(ev).finish());

  obs::LedgerEvent("gamma", t).field("n", 3).finish();

  // Passing: unparsed but declared `ledger-schema:ignore` in the parser.
  obs::LedgerEvent("meta", t).field("note", "config echo").finish();

  // expect: ledger-schema
  obs::LedgerEvent("orphan", t).field("z", 1).finish();

  // expect: ledger-schema
  obs::LedgerEvent("beta", t).raw("ys", "[]").finish();  // omits req
}

}  // namespace stellaris
