#include "serverless/container_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "run_on_threads.hpp"
#include "util/error.hpp"

namespace stellaris::serverless {
namespace {

LatencyModel fast_lat() {
  LatencyModel lat;
  lat.jitter_frac = 0.0;  // deterministic latencies for exact assertions
  return lat;
}

TEST(ContainerPool, FirstAcquireIsCold) {
  ContainerPool pool(2, fast_lat(), 1);
  auto a = pool.acquire(0.0);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->cold);
  EXPECT_DOUBLE_EQ(a->start_latency_s, fast_lat().cold_start_s);
  EXPECT_EQ(pool.cold_starts(), 1u);
}

TEST(ContainerPool, ReleasedContainerIsWarm) {
  ContainerPool pool(2, fast_lat(), 1);
  auto a = pool.acquire(0.0);
  pool.release(a->container_id, 1.0);
  auto b = pool.acquire(2.0);
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(b->cold);
  EXPECT_DOUBLE_EQ(b->start_latency_s, fast_lat().warm_start_s);
  EXPECT_EQ(pool.warm_starts(), 1u);
}

TEST(ContainerPool, KeepAliveExpires) {
  ContainerPool pool(1, fast_lat(), 1);
  auto a = pool.acquire(0.0);
  pool.release(a->container_id, 10.0);
  // Past the 600 s keep-alive window the container has gone cold again.
  auto b = pool.acquire(10.0 + fast_lat().keep_alive_s + 1.0);
  EXPECT_TRUE(b->cold);
}

TEST(ContainerPool, CapacityLimitsConcurrency) {
  ContainerPool pool(2, fast_lat(), 1);
  auto a = pool.acquire(0.0);
  auto b = pool.acquire(0.0);
  EXPECT_TRUE(a && b);
  EXPECT_FALSE(pool.acquire(0.0).has_value());
  EXPECT_EQ(pool.busy(), 2u);
  pool.release(a->container_id, 1.0);
  EXPECT_TRUE(pool.acquire(1.0).has_value());
}

TEST(ContainerPool, PrewarmMakesStartsWarmForFree) {
  ContainerPool pool(4, fast_lat(), 1);
  EXPECT_EQ(pool.prewarm(3, 0.0), 3u);
  EXPECT_EQ(pool.warm_idle(0.0), 3u);
  auto a = pool.acquire(1.0);
  EXPECT_FALSE(a->cold);
  // No cold start was recorded: prewarming is outside the cost model.
  EXPECT_EQ(pool.cold_starts(), 0u);
}

TEST(ContainerPool, PrewarmCapsAtCapacity) {
  ContainerPool pool(2, fast_lat(), 1);
  EXPECT_EQ(pool.prewarm(10, 0.0), 2u);
}

TEST(ContainerPool, WarmIdleCountExpires) {
  ContainerPool pool(2, fast_lat(), 1);
  pool.prewarm(2, 0.0);
  EXPECT_EQ(pool.warm_idle(0.0), 2u);
  EXPECT_EQ(pool.warm_idle(fast_lat().keep_alive_s + 1.0), 0u);
}

TEST(ContainerPool, ReleaseInvalidStatesThrow) {
  ContainerPool pool(1, fast_lat(), 1);
  EXPECT_THROW(pool.release(0, 0.0), Error);    // not busy
  EXPECT_THROW(pool.release(5, 0.0), Error);    // bad id
  EXPECT_THROW(ContainerPool(0, fast_lat(), 1), Error);
}

// Regression test for the annotation audit: every pool field used to be
// mutated with no guard, so concurrent acquire/release from real threads
// (the real-concurrency driver path) could corrupt slot state and the
// start counters. Hammer the pool from many threads and check the
// invariants the mutex now enforces. Run under TSan in CI.
TEST(ContainerPool, ConcurrentAcquireReleaseKeepsInvariants) {
  constexpr std::size_t kCapacity = 4;
  constexpr std::size_t kIters = 2000;
  ContainerPool pool(kCapacity, fast_lat(), 1);
  std::atomic<std::uint64_t> acquired{0};
  std::atomic<bool> overflow{false};
  testing_util::run_on_threads(8, kIters, [&](std::size_t i) {
    auto a = pool.acquire(static_cast<double>(i));
    if (!a) return;
    acquired.fetch_add(1, std::memory_order_relaxed);
    if (pool.busy() > kCapacity) overflow.store(true);
    pool.release(a->container_id, static_cast<double>(i));
  });
  EXPECT_FALSE(overflow.load());
  EXPECT_EQ(pool.busy(), 0u);  // every successful acquire was released
  EXPECT_GT(acquired.load(), 0u);
  // Each successful acquisition was either a cold or a warm start.
  EXPECT_EQ(pool.cold_starts() + pool.warm_starts(), acquired.load());
  EXPECT_EQ(pool.kills(), 0u);
}

TEST(ContainerPool, WarmContainersPreferredOverCold) {
  ContainerPool pool(3, fast_lat(), 1);
  pool.prewarm(1, 0.0);
  auto a = pool.acquire(0.0);
  EXPECT_FALSE(a->cold);  // took the warm one first
  auto b = pool.acquire(0.0);
  EXPECT_TRUE(b->cold);
}

}  // namespace
}  // namespace stellaris::serverless
