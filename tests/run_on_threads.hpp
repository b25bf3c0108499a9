// Concurrency harness for tests: run fn(i) for every i in [0, n) on
// `threads` plain std::threads, each taking every threads-th index, then
// join them all. Tests sit outside the hygiene scope (DESIGN.md §16.5),
// so they may own threads directly.
#pragma once

#include <cstddef>
#include <thread>
#include <vector>

namespace stellaris::testing_util {

template <typename Fn>
void run_on_threads(std::size_t threads, std::size_t n, const Fn& fn) {
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t)
    workers.emplace_back([&fn, t, threads, n] {
      for (std::size_t i = t; i < n; i += threads) fn(i);
    });
  for (auto& w : workers) w.join();
}

}  // namespace stellaris::testing_util
