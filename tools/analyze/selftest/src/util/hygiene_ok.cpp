// Passing hygiene cases: idioms that look close to a violation but are
// not one, suppressed lines, and forbidden names that only appear in
// comments or string literals. Nothing in this file may fire.
namespace stellaris {

void hygiene_clean() {
  unsigned n = std::thread::hardware_concurrency();  // a query, not a thread
  std::thread worker([] {});  // analyze:raw-thread-ok — the driver's pool
  Rng rng(seed);
  double t = engine.now();
  auto w = std::chrono::steady_clock::now();  // analyze:wall-clock-ok
  // analyze:unordered-ok — lookup only
  std::unordered_map<int, int> m;
  MutexLock lock(mu_);
  for (const auto& s : shards_) {  // analyze:shard-iter-ok — order-free sum
  }
  Shard& s = shard_for(key);  // single-shard access, not a walk
}

int grand(int);  // must not trip `rand(`

// Names inside string literals and block comments are not code.
const char* kProse = "std::mt19937 and steady_clock and std::mutex";
/* std::random_device rd; std::thread t; std::unordered_map<int, int> m; */

// The path-scoped rules do not apply outside their scope.
void hygiene_scoped_rules_out_of_scope() {
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  engine_.schedule_at(t, fn);
  Engine& eng = platform.engine();
}

}  // namespace stellaris
