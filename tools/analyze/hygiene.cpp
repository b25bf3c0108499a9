// hygiene pass: the determinism and concurrency-hygiene rules the compiler
// cannot check (Clang's -Wthread-safety proves lock discipline; this pass
// proves the rest). Every rule matches on the comment- and string-aware
// token stream, so prose in comments and text in string literals never
// fires. Rules, and why each exists:
//
//   randomness    No std::random_device / std::mt19937 / rand() / srand().
//                 Every stochastic draw flows through util/rng (seeded
//                 xoshiro256**) so a run is a pure function of (config,
//                 seed).
//   wall-clock    No {system,steady,high_resolution}_clock. Results live on
//                 the virtual clock (sim::Engine::now). util/logging.cpp is
//                 exempt (log line timestamps).
//   raw-thread    No std::thread / std::jthread. Kernels run on the calling
//                 thread, so the execution driver's worker pool is the one
//                 owner of threads, and it marks each line.
//                 std::thread::hardware_concurrency() is a query, not a
//                 thread.
//   raw-mutex     No std mutex / condition_variable / lock types (or their
//                 headers) outside util/annotated_mutex.*: everything locks
//                 through the annotated wrappers so Clang can check it and
//                 the lock-order checker can rank it.
//   unordered     Declaring a std::unordered_{map,set,...} needs a marker
//                 stating why iteration order can never affect results.
//   shard-iter    A `for` header over `shards_` (the cache's key-hashed
//                 stripes) needs a marker stating why the outcome is
//                 independent of the shard count (DESIGN.md §12).
//   serve-sleep   (src/serve/* only) No real sleeps: the serving data plane
//                 models every latency as a virtual-clock timer (§15).
//   driver-engine (src/sim/*driver* only) Execution drivers must not touch
//                 the event Engine or its scheduling API (§14).
//
// Scope is src/, tools/report/ and examples/. bench/ and the rest of tools/
// stay out: the benches legitimately read steady_clock. Findings are
// suppressed per line with `analyze:<rule>-ok` (own line or the line
// above), with a rationale in the surrounding comment.
#include "analyzer.hpp"

#include <algorithm>
#include <initializer_list>
#include <string_view>
#include <utility>

namespace stellaris::analyze {

namespace {

using Tokens = std::vector<Token>;

bool punct_at(const Tokens& toks, std::size_t i, const char* s) {
  return i < toks.size() && toks[i].kind == Token::Kind::kPunct &&
         toks[i].text == s;
}
bool ident_at(const Tokens& toks, std::size_t i, const char* s) {
  return i < toks.size() && toks[i].kind == Token::Kind::kIdent &&
         toks[i].text == s;
}
bool one_of(const std::string& s,
            std::initializer_list<std::string_view> names) {
  return std::find(names.begin(), names.end(), s) != names.end();
}
/// `std::<toks[i]>`.
bool std_qualified(const Tokens& toks, std::size_t i) {
  return i >= 2 && punct_at(toks, i - 1, "::") && ident_at(toks, i - 2, "std");
}

/// A file directly under `dir` (no subdirectory) named *.hpp / *.cpp whose
/// file name contains `infix`.
bool direct_child(const std::string& rel, const std::string& dir,
                  const std::string& infix) {
  if (!rel.starts_with(dir)) return false;
  const std::string name = rel.substr(dir.size());
  return name.find('/') == std::string::npos &&
         name.find(infix) != std::string::npos &&
         (name.ends_with(".hpp") || name.ends_with(".cpp"));
}

/// A matcher inspects the token at `i` and returns the matched symbol (the
/// finding key), or "" when the token starts no violation.
using Matcher = std::string (*)(const Tokens& toks, std::size_t i);

std::string match_randomness(const Tokens& toks, std::size_t i) {
  const std::string& t = toks[i].text;
  if (one_of(t, {"random_device", "mt19937", "mt19937_64"}) &&
      std_qualified(toks, i))
    return "std::" + t;
  if (one_of(t, {"rand", "srand"}) && punct_at(toks, i + 1, "(")) return t;
  return "";
}

std::string match_wall_clock(const Tokens& toks, std::size_t i) {
  const std::string& t = toks[i].text;
  return one_of(t, {"system_clock", "steady_clock", "high_resolution_clock"})
             ? t
             : "";
}

std::string match_raw_thread(const Tokens& toks, std::size_t i) {
  const std::string& t = toks[i].text;
  if (!std_qualified(toks, i)) return "";
  if (t == "jthread" || (t == "thread" && !punct_at(toks, i + 1, "::")))
    return "std::" + t;
  return "";
}

std::string match_raw_mutex(const Tokens& toks, std::size_t i) {
  const std::string& t = toks[i].text;
  if (one_of(t, {"mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
                 "recursive_timed_mutex", "shared_timed_mutex",
                 "condition_variable", "condition_variable_any", "lock_guard",
                 "unique_lock", "scoped_lock", "shared_lock"}) &&
      std_qualified(toks, i))
    return "std::" + t;
  // #include <mutex> / <shared_mutex> / <condition_variable>
  if (t == "include" && i >= 1 && punct_at(toks, i - 1, "#") &&
      punct_at(toks, i + 1, "<") && punct_at(toks, i + 3, ">") &&
      one_of(toks[i + 2].text, {"mutex", "shared_mutex", "condition_variable"}))
    return "<" + toks[i + 2].text + ">";
  return "";
}

std::string match_unordered(const Tokens& toks, std::size_t i) {
  const std::string& t = toks[i].text;
  if (one_of(t, {"unordered_map", "unordered_set", "unordered_multimap",
                 "unordered_multiset"}) &&
      std_qualified(toks, i) && punct_at(toks, i + 1, "<"))
    return "std::" + t;
  return "";
}

std::string match_shard_iter(const Tokens& toks, std::size_t i) {
  if (toks[i].text != "for" || !punct_at(toks, i + 1, "(")) return "";
  int depth = 0;
  for (std::size_t j = i + 1; j < toks.size(); ++j) {
    if (punct_at(toks, j, "(")) ++depth;
    if (punct_at(toks, j, ")") && --depth == 0) break;
    if (ident_at(toks, j, "shards_") || ident_at(toks, j, "shard_"))
      return toks[j].text;
  }
  return "";
}

std::string match_serve_sleep(const Tokens& toks, std::size_t i) {
  const std::string& t = toks[i].text;
  if (one_of(t, {"sleep_for", "sleep_until"})) return t;
  if (one_of(t, {"usleep", "nanosleep"}) && punct_at(toks, i + 1, "("))
    return t;
  return "";
}

std::string match_driver_engine(const Tokens& toks, std::size_t i) {
  const std::string& t = toks[i].text;
  if (one_of(t, {"Engine", "engine_", "schedule_at", "schedule_after"}) ||
      t.starts_with("schedule_cancellable"))
    return t;
  if (t == "engine" && punct_at(toks, i + 1, "(") && punct_at(toks, i + 2, ")"))
    return "engine()";
  return "";
}

struct Rule {
  const char* name;
  Matcher match;
  std::set<std::string> exempt_files;
  /// Path scope (nullptr = the whole hygiene scope): only *.hpp / *.cpp
  /// files directly under `scope_dir` whose name contains `scope_infix`.
  const char* scope_dir;
  const char* scope_infix;
  const char* why;
};

const std::vector<Rule>& rules() {
  static const std::vector<Rule> r = {
      {"randomness", match_randomness, {}, nullptr, nullptr,
       "all randomness must flow through util/rng (seeded, splittable)"},
      {"wall-clock", match_wall_clock, {"src/util/logging.cpp"}, nullptr,
       nullptr,
       "results run on the virtual clock (sim::Engine); wall-clock reads are "
       "nondeterministic — mark intentional real-time debug code with "
       "analyze:wall-clock-ok"},
      {"raw-thread", match_raw_thread, {}, nullptr, nullptr,
       "parallelism comes from the execution driver's worker pool (its "
       "spawn/drain/join and per-job exception capture); an owner of "
       "threads with a reason marks each line analyze:raw-thread-ok"},
      {"raw-mutex", match_raw_mutex,
       {"src/util/annotated_mutex.hpp", "src/util/annotated_mutex.cpp"},
       nullptr, nullptr,
       "lock through util/annotated_mutex.hpp (capability annotations + "
       "lock-order checking)"},
      {"unordered", match_unordered, {}, nullptr, nullptr,
       "unordered iteration order is hash-seed-dependent; add an "
       "analyze:unordered-ok marker with a rationale (no result-affecting "
       "iteration, or iteration via a sorted view)"},
      {"shard-iter", match_shard_iter, {}, nullptr, nullptr,
       "whole-store walks over key-hashed shards see keys in hash-placement "
       "order; add an analyze:shard-iter-ok marker stating why the result is "
       "shard-count-independent (order-free aggregation, or sorted after "
       "collection) — see DESIGN.md §12"},
      {"serve-sleep", match_serve_sleep, {}, "src/serve/", "",
       "the serving tier runs on the virtual clock: model waits with "
       "sim::Engine timers, never real sleeps — a real sleep couples latency "
       "quantiles to host scheduling and breaks cross-driver bit-identity "
       "(DESIGN.md §15) — mark deliberate real-time scaffolding with "
       "analyze:serve-sleep-ok"},
      {"driver-engine", match_driver_engine, {}, "src/sim/", "driver",
       "execution drivers must not touch the event engine: bodies run off "
       "the engine thread, and engine state (clock, event queue) is owned by "
       "the merge section (DESIGN.md §14) — mark deliberate engine-side "
       "plumbing with analyze:driver-engine-ok"},
  };
  return r;
}

bool in_hygiene_scope(const std::string& rel) {
  for (const char* dir : {"src/", "tools/report/", "examples/"})
    if (rel.starts_with(dir)) return true;
  return false;
}

}  // namespace

void check_hygiene(const Project& project, std::vector<Finding>& out) {
  for (const auto& file : project.files) {
    if (!in_hygiene_scope(file.rel)) continue;
    for (const Rule& rule : rules()) {
      if (rule.exempt_files.count(file.rel)) continue;
      if (rule.scope_dir &&
          !direct_child(file.rel, rule.scope_dir, rule.scope_infix))
        continue;
      // One finding per (rule, line), like a line-oriented report.
      int last_line = 0;
      const auto& toks = file.tokens;
      for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != Token::Kind::kIdent || toks[i].line == last_line)
          continue;
        std::string symbol = rule.match(toks, i);
        if (symbol.empty() || file.suppressed(rule.name, toks[i].line))
          continue;
        last_line = toks[i].line;
        const std::string message = "`" + symbol + "` — " + rule.why;
        out.push_back({rule.name, file.rel, last_line, std::move(symbol),
                       message});
      }
    }
  }
}

}  // namespace stellaris::analyze
