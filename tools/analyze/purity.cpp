// driver-purity pass: the body lambda handed to `driver().submit(...)`
// runs on a worker thread under the concurrent driver (DESIGN.md §14), so
// it — and everything reachable from it through project functions — must
// be a pure function of the captured inputs. Concretely, a body must not:
//
//   * touch the engine (`engine_`, `schedule_*`): bodies cannot schedule;
//   * read wall clocks (`system_clock`, `steady_clock`, ...): results must
//     be identical under the virtual and concurrent drivers;
//   * draw from shared RNG (`rand`, `srand`, `random_device`, a member
//     `rng_`): bodies derive randomness from captured per-invocation
//     streams (`sim::invocation_stream`). In VecEnv (src/envs/vec_env.*)
//     the member stream is additionally forbidden in REACHED functions:
//     a `rng_.` draw there would silently key auto-reset seeds off
//     cross-invocation state (DESIGN.md §17). Passing `rng_` by reference
//     into a caller-Rng overload (`rng_` followed by `)` or `,`) is the
//     sanctioned delegation and does not match the rule;
//   * emit telemetry (`obs::ledger()`, `obs::metrics()`,
//     `obs::timeseries()`, `LedgerEvent`, or a reintroduced `obs::` trace
//     slot): emission order would depend on worker interleaving —
//     telemetry belongs in the merge;
//   * reach back into engine-thread state (`cache_`, `platform_`): cache
//     reads happen at capture time, writes in the merge.
//
// Reachability is by unqualified call name over the project-wide function
// index — overloads are merged, which errs toward more findings; the
// sim layer itself (driver machinery) and everything outside src/ are
// excluded from traversal. Findings
// are suppressed per line with `analyze:driver-purity-ok`.
#include "analyzer.hpp"
#include "functions.hpp"

namespace stellaris::analyze {

namespace {

bool punct_is(const Token& t, const char* s) {
  return t.kind == Token::Kind::kPunct && t.text == s;
}

const std::set<std::string>& forbidden_idents() {
  static const std::set<std::string> s = {
      "engine_",       "platform_",     "cache_",
      "system_clock",  "steady_clock",  "high_resolution_clock",
      "random_device", "srand",         "LedgerEvent",
  };
  return s;
}

/// Forbidden only in the submit lambda itself: a body that touches the
/// trainer's `rng_` through its `this` capture draws from shared RNG. In
/// *reached* functions the same spelling is overwhelmingly a per-object
/// stream (each env owns an `rng_` whose draws are serialized by the
/// per-actor job chain), so it is allowed there.
const std::set<std::string>& forbidden_direct_idents() {
  static const std::set<std::string> s = {"rng_"};
  return s;
}

/// Member names never traversed into: these are std-vocabulary spellings
/// (atomics, containers, smart pointers) where an unqualified-name index
/// lookup would hit unrelated project methods (e.g. `x.load()` on an
/// atomic resolving to `PolicyStore::load`).
const std::set<std::string>& opaque_callees() {
  static const std::set<std::string> s = {
      "load",        "store",       "exchange",   "fetch_add", "fetch_sub",
      "push_back",   "emplace_back", "insert",    "erase",     "find",
      "count",       "clear",       "resize",     "reserve",   "swap",
      "begin",       "end",         "size",       "empty",     "data",
      "front",       "back",        "at",         "c_str",     "str",
      "append",      "substr",      "wait",       "notify_one",
      "notify_all",  "lock",        "unlock",     "try_lock",
  };
  return s;
}

const std::set<std::string>& forbidden_obs() {
  static const std::set<std::string> s = {"ledger", "trace", "tracer",
                                          "metrics", "timeseries"};
  return s;
}

struct Ctx {
  const Project* project = nullptr;
  const FuncIndex* index = nullptr;
  std::vector<Finding>* out = nullptr;
  std::set<std::string> reported;          // finding ids (dedup)
  std::set<std::string> visited;           // "file:name:line" of checked defs
};

/// Why an identifier is forbidden, or "" when it is allowed.
std::string forbidden_reason(const std::string& ident) {
  if (forbidden_idents().count(ident)) return "references `" + ident + "`";
  if (ident.rfind("schedule_", 0) == 0)
    return "schedules engine work via `" + ident + "`";
  return "";
}

void report(Ctx& ctx, const SourceFile& file, int line,
            const std::string& context, const std::string& symbol,
            const std::string& reason, const std::string& chain) {
  if (file.suppressed("driver-purity", line)) return;
  Finding f{"driver-purity", file.rel, line, context + ":" + symbol,
            context == "submit-body"
                ? "driver body " + reason +
                      " — bodies must be pure functions of their capture "
                      "(DESIGN.md §14)" + chain
                : "`" + context + "` " + reason +
                      ", and it is reachable from a driver body" + chain};
  if (ctx.reported.insert(f.id()).second) ctx.out->push_back(f);
}

void check_range(Ctx& ctx, const SourceFile& file, std::size_t begin,
                 std::size_t end, const std::string& context,
                 const std::string& chain);

/// Follow calls out of [begin, end) into project function definitions.
void traverse_calls(Ctx& ctx, const SourceFile& file, std::size_t begin,
                    std::size_t end, const std::string& chain) {
  for (const auto& callee : calls_in_range(file.tokens, begin, end)) {
    if (opaque_callees().count(callee)) continue;
    auto [lo, hi] = ctx.index->equal_range(callee);
    for (auto it = lo; it != hi; ++it) {
      const FuncDef& def = it->second;
      // The driver/engine machinery is the impure substrate the bodies run
      // on; traversing into it would flag the infrastructure, not misuse.
      // Code outside src/ (tools, benches) is never linked into a body.
      if (def.file->rel.rfind("src/sim/", 0) == 0 ||
          def.file->rel.rfind("src/", 0) != 0)
        continue;
      const std::string key = def.file->rel + ":" + def.name + ":" +
                              std::to_string(def.line);
      if (!ctx.visited.insert(key).second) continue;
      check_range(ctx, *def.file, def.body_begin, def.body_end, def.name,
                  chain + " -> " + def.name);
    }
  }
}

void check_range(Ctx& ctx, const SourceFile& file, std::size_t begin,
                 std::size_t end, const std::string& context,
                 const std::string& chain) {
  const auto& toks = file.tokens;
  const std::string via = " (call path: " + chain + ")";
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent) continue;
    // obs::ledger() / obs::metrics() / obs::timeseries(), and the retired
    // trace slot (see forbidden_obs).
    if (t.text == "obs" && i + 2 < end && punct_is(toks[i + 1], "::") &&
        toks[i + 2].kind == Token::Kind::kIdent &&
        forbidden_obs().count(toks[i + 2].text)) {
      report(ctx, file, toks[i + 2].line, context, "obs::" + toks[i + 2].text,
             "emits telemetry via `obs::" + toks[i + 2].text +
                 "()` — telemetry belongs in the merge",
             via);
      i += 2;
      continue;
    }
    if (t.text == "rand" && i + 1 < end && punct_is(toks[i + 1], "(")) {
      report(ctx, file, t.line, context, "rand",
             "calls the global `rand()`", via);
      continue;
    }
    std::string reason = forbidden_reason(t.text);
    if (reason.empty() && context == "submit-body" &&
        forbidden_direct_idents().count(t.text))
      reason = "references shared `" + t.text + "` through its capture";
    // VecEnv-specific: a member-`rng_` DRAW (`rng_.`) anywhere reachable
    // from a body keys auto-reset seeds off cross-invocation state.
    // Delegating `rng_` by reference to a caller-Rng overload is fine.
    if (reason.empty() && t.text == "rng_" && i + 1 < end &&
        punct_is(toks[i + 1], ".") &&
        file.rel.find("vec_env") != std::string::npos)
      reason = "draws from VecEnv's member `rng_` stream — auto-reset "
               "seeds must come from the caller's per-invocation Rng "
               "(DESIGN.md §17)";
    if (!reason.empty()) report(ctx, file, t.line, context, t.text, reason, via);
  }
  traverse_calls(ctx, file, begin, end, chain);
}

}  // namespace

void check_purity(const Project& project, std::vector<Finding>& out) {
  const FuncIndex index = index_functions(project);
  Ctx ctx;
  ctx.project = &project;
  ctx.index = &index;
  ctx.out = &out;

  for (const auto& file : project.files) {
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i + 6 < toks.size(); ++i) {
      // driver ( ) . submit ( [capture] (params) ... { body }
      if (!(toks[i].kind == Token::Kind::kIdent && toks[i].text == "driver"))
        continue;
      if (!punct_is(toks[i + 1], "(")) continue;
      const std::size_t after_driver_args = match_group(toks, i + 1);
      if (after_driver_args + 2 >= toks.size()) continue;
      if (!punct_is(toks[after_driver_args], ".")) continue;
      if (!(toks[after_driver_args + 1].kind == Token::Kind::kIdent &&
            toks[after_driver_args + 1].text == "submit"))
        continue;
      if (!punct_is(toks[after_driver_args + 2], "(")) continue;
      const int root_line = toks[i].line;
      if (file.suppressed("driver-purity", root_line)) continue;
      // First argument must be a lambda; only it is the body (a second
      // argument is a dependency handle, not code).
      std::size_t j = after_driver_args + 3;
      if (j >= toks.size() || !punct_is(toks[j], "[")) continue;
      j = match_group(toks, j);  // past the capture list
      if (j < toks.size() && punct_is(toks[j], "("))
        j = match_group(toks, j);  // past the parameter list
      while (j < toks.size() && toks[j].kind == Token::Kind::kIdent)
        ++j;  // mutable / noexcept
      if (j >= toks.size() || !punct_is(toks[j], "{")) continue;
      const std::size_t body_end = match_group(toks, j);
      check_range(ctx, file, j, body_end, "submit-body",
                  "submit@" + file.rel + ":" + std::to_string(root_line));
      i = after_driver_args + 2;
    }
  }
}

}  // namespace stellaris::analyze
