// Failing hygiene cases for the unscoped rules: every snippet the rule
// family must fire on, one per line, each annotated on the line above.
namespace stellaris {

void hygiene_randomness() {
  // expect: randomness
  std::random_device rd;
  // expect: randomness
  std::mt19937 gen(42);
  // expect: randomness
  srand(7);
  // expect: randomness
  int x = rand();
}

void hygiene_wall_clock() {
  // expect: wall-clock
  auto t = std::chrono::steady_clock::now();
  // expect: wall-clock
  auto u = std::chrono::system_clock::now();
  // expect: wall-clock
  using clk = std::chrono::high_resolution_clock;
}

void hygiene_raw_thread() {
  // expect: raw-thread
  std::thread t([] {});
  // expect: raw-thread
  std::jthread j([] {});
}

// expect: raw-mutex
#include <mutex>

void hygiene_raw_mutex() {
  // expect: raw-mutex
  std::mutex mu;
  // expect: raw-mutex
  std::condition_variable cv;
  // expect: raw-mutex
  std::lock_guard<std::mutex> lock(mu);
  // expect: raw-mutex
  std::shared_lock lk(mu);
}

// expect: unordered
std::unordered_map<std::string, int> hygiene_map;

void hygiene_shard_iter() {
  // expect: shard-iter
  for (const auto& s : shards_) {
  }
  // expect: shard-iter
  for (std::size_t i = 0; i < shards_.size(); ++i) {
  }
  // A header split across lines is still one walk over the shards.
  // expect: shard-iter
  for (std::size_t i = 0;
       i < shards_.size(); ++i) {
  }
}

}  // namespace stellaris
