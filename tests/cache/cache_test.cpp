#include "cache/distributed_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "util/error.hpp"

namespace stellaris::cache {
namespace {

Bytes bytes_of(std::initializer_list<std::uint8_t> v) { return Bytes(v); }

/// Materialize a read's span view for content comparisons.
Bytes read_bytes(const CacheValue& v) {
  return Bytes(v.bytes().begin(), v.bytes().end());
}

TEST(Cache, PutGetRoundTrip) {
  DistributedCache cache;
  cache.put("k", bytes_of({1, 2, 3}));
  auto v = cache.get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(read_bytes(*v), bytes_of({1, 2, 3}));
  EXPECT_EQ(v->version, 1u);
  EXPECT_EQ(v->size_bytes(), 3u);
}

TEST(Cache, MissingKeyIsNullopt) {
  DistributedCache cache;
  EXPECT_FALSE(cache.get("nope").has_value());
  EXPECT_THROW(cache.get_or_throw("nope"), CacheError);
}

TEST(Cache, VersionsIncrementPerKey) {
  DistributedCache cache;
  EXPECT_EQ(cache.put("a", Bytes{}), 1u);
  EXPECT_EQ(cache.put("a", Bytes{}), 2u);
  EXPECT_EQ(cache.put("b", Bytes{}), 1u);
  EXPECT_EQ(cache.version("a"), 2u);
  EXPECT_EQ(cache.version("missing"), 0u);
}

TEST(Cache, OverwriteReplacesValue) {
  DistributedCache cache;
  cache.put("k", bytes_of({1}));
  cache.put("k", bytes_of({9, 9}));
  EXPECT_EQ(read_bytes(*cache.get("k")), bytes_of({9, 9}));
  EXPECT_EQ(cache.resident_bytes(), 2u);
}

TEST(Cache, EraseRemoves) {
  DistributedCache cache;
  cache.put("k", bytes_of({1, 2}));
  EXPECT_TRUE(cache.erase("k"));
  EXPECT_FALSE(cache.erase("k"));
  EXPECT_FALSE(cache.contains("k"));
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

TEST(Cache, PrefixScanIsSortedAndScoped) {
  DistributedCache cache;
  cache.put("traj/2", Bytes{});
  cache.put("traj/10", Bytes{});
  cache.put("grad/1", Bytes{});
  cache.put("traj/1", Bytes{});
  auto keys = cache.keys_with_prefix("traj/");
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "traj/1");   // lexicographic
  EXPECT_EQ(keys[1], "traj/10");
  EXPECT_EQ(keys[2], "traj/2");
}

TEST(Cache, ErasePrefixRemovesAllMatches) {
  DistributedCache cache;
  cache.put("traj/1", bytes_of({1}));
  cache.put("traj/2", bytes_of({2}));
  cache.put("grad/1", bytes_of({3}));
  EXPECT_EQ(cache.erase_prefix("traj/"), 2u);
  EXPECT_EQ(cache.num_keys(), 1u);
  EXPECT_TRUE(cache.contains("grad/1"));
}

TEST(Cache, StatsTrackTraffic) {
  DistributedCache cache;
  cache.put("k", bytes_of({1, 2, 3, 4}));
  (void)cache.get("k");
  (void)cache.get("absent");
  auto s = cache.stats();
  EXPECT_EQ(s.puts, 1u);
  EXPECT_EQ(s.gets, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.bytes_written, 4u);
  EXPECT_EQ(s.bytes_read, 4u);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().puts, 0u);
}

// ---- Zero-copy payload plane ----

TEST(Cache, ReadAliasesTheStoredPayloadBuffer) {
  DistributedCache cache;
  Bytes payload(1024, 0xab);
  const std::uint8_t* heap_block = payload.data();
  cache.put("k", std::move(payload));
  // The read's view points into the very heap block the writer filled:
  // no byte was copied on the write or the read path.
  auto v = cache.get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->bytes().data(), heap_block);
  // Concurrent readers share one payload (refcount, not duplication).
  auto v2 = cache.get("k");
  EXPECT_EQ(v2->payload.get(), v->payload.get());
  EXPECT_GE(v->payload.use_count(), 3);  // store + two readers
}

TEST(Cache, ViewOutlivesOverwriteAndErase) {
  DistributedCache cache;
  cache.put("k", bytes_of({1, 2, 3}));
  auto v = cache.get("k");
  cache.put("k", bytes_of({9}));  // overwrite replaces the entry's pointer
  cache.erase("k");
  // The old snapshot is still alive and unchanged through our refcount.
  EXPECT_EQ(read_bytes(*v), bytes_of({1, 2, 3}));
}

TEST(Cache, PutPayloadStoresWithoutCopy) {
  DistributedCache cache;
  auto payload = std::make_shared<const Bytes>(bytes_of({4, 5, 6}));
  cache.put("k", payload);
  auto v = cache.get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->payload.get(), payload.get());
}

// ---- Accounting: exactly one bump per logical read on every path ----

TEST(Cache, BytesReadCountsEachLogicalReadOnceAcrossAllPaths) {
  DistributedCache cache;
  sim::Engine engine;
  cache.put("k", Bytes(10, 1));

  (void)cache.get("k");                                             // 1
  (void)cache.get_or_throw("k");                                    // 2
  (void)cache.get_blocking("k", 0, std::chrono::milliseconds(5));   // 3
  (void)cache.get_blocking("k", 0, engine, 5.0);                    // 4
  cache.get_async("k", 0, engine, 5.0, [](auto) {});                // 5
  engine.run();
  // 6: waiter satisfied by a future put (the wake-up is the read).
  cache.get_async("k", 1, engine, 5.0, [](auto) {});
  cache.put("k", Bytes(10, 2));
  engine.run();

  auto s = cache.stats();
  EXPECT_EQ(s.hits, 6u);
  EXPECT_EQ(s.bytes_read, 60u);
  // Unsatisfied paths bump misses, never bytes_read.
  (void)cache.get("absent");
  (void)cache.get_blocking("k", 99, engine, 1.0);
  EXPECT_EQ(cache.stats().bytes_read, 60u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

// ---- Sharding ----

TEST(Cache, ShardCountDoesNotChangeObservableState) {
  // Identical operation sequences must produce identical observable state
  // (keys, versions, stats, sizes) for ANY stripe count — the determinism
  // contract that keeps figures bit-identical.
  auto run = [](std::size_t shards) {
    DistributedCache cache(shards);
    for (int i = 0; i < 40; ++i)
      cache.put("traj/" + std::to_string(i % 13),
                Bytes(static_cast<std::size_t>(i % 7), 0x5a));
    cache.put("policy/latest", Bytes(64, 1));
    cache.put("policy/latest", Bytes(64, 2));
    (void)cache.get("policy/latest");
    (void)cache.get("traj/3");
    (void)cache.get("traj/404");
    cache.erase("traj/5");
    cache.erase_prefix("grad/");
    struct Observed {
      std::vector<std::string> keys;
      std::vector<std::uint64_t> versions;
      std::size_t num_keys, resident;
      CacheStats stats;
    } o;
    o.keys = cache.keys_with_prefix("");
    for (const auto& k : o.keys) o.versions.push_back(cache.version(k));
    o.num_keys = cache.num_keys();
    o.resident = cache.resident_bytes();
    o.stats = cache.stats();
    return o;
  };
  const auto base = run(1);
  for (std::size_t shards : {2u, 3u, 8u, 64u}) {
    const auto o = run(shards);
    EXPECT_EQ(o.keys, base.keys) << shards << " shards";
    EXPECT_EQ(o.versions, base.versions) << shards << " shards";
    EXPECT_EQ(o.num_keys, base.num_keys) << shards << " shards";
    EXPECT_EQ(o.resident, base.resident) << shards << " shards";
    EXPECT_EQ(o.stats.puts, base.stats.puts) << shards << " shards";
    EXPECT_EQ(o.stats.gets, base.stats.gets) << shards << " shards";
    EXPECT_EQ(o.stats.hits, base.stats.hits) << shards << " shards";
    EXPECT_EQ(o.stats.misses, base.stats.misses) << shards << " shards";
    EXPECT_EQ(o.stats.erases, base.stats.erases) << shards << " shards";
    EXPECT_EQ(o.stats.bytes_written, base.stats.bytes_written)
        << shards << " shards";
    EXPECT_EQ(o.stats.bytes_read, base.stats.bytes_read)
        << shards << " shards";
  }
}

TEST(Cache, SingleShardStillWorks) {
  DistributedCache cache(1);
  EXPECT_EQ(cache.num_shards(), 1u);
  cache.put("a", bytes_of({1}));
  cache.put("b", bytes_of({2}));
  EXPECT_EQ(cache.num_keys(), 2u);
  EXPECT_EQ(read_bytes(*cache.get("a")), bytes_of({1}));
}

TEST(Cache, HammerMixedOpsAcrossStripes) {
  // TSan target: readers, writers, blockers, and erasers racing across all
  // stripes (hot shared keys + thread-private keys), including blocking
  // reads that time out while other stripes are being written.
  DistributedCache cache(4);
  constexpr int kThreads = 8;
  constexpr int kOps = 300;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &go, t] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kOps; ++i) {
        std::string hot = "hot/";
        hot.append(std::to_string((i / 5) % 5));
        std::string mine = "t";
        mine.append(std::to_string(t)).append("/").append(std::to_string(i));
        switch (i % 5) {
          case 0:
            cache.put(hot, Bytes(64, static_cast<std::uint8_t>(t)));
            break;
          case 1:
            cache.put(mine, Bytes(16, static_cast<std::uint8_t>(i)));
            break;
          case 2:
            if (auto v = cache.get(hot)) {
              // Touch the shared payload after the lock is released.
              volatile std::uint8_t sink = v->bytes().empty()
                                               ? std::uint8_t{0}
                                               : v->bytes().front();
              (void)sink;
            }
            break;
          case 3:
            (void)cache.get_blocking(hot, /*min_version=*/0,
                                     std::chrono::milliseconds(1));
            break;
          default:
            cache.erase(mine);
            break;
        }
      }
    });
  }
  go.store(true);
  for (auto& th : threads) th.join();
  // Sanity: the cache is still coherent after the storm.
  auto s = cache.stats();
  EXPECT_EQ(s.puts, kThreads * kOps * 2u / 5u);
  EXPECT_EQ(cache.keys_with_prefix("hot/").size(), 5u);
}

TEST(Cache, BlockingGetReturnsExistingNewValue) {
  DistributedCache cache;
  cache.put("k", bytes_of({5}));
  auto v = cache.get_blocking("k", 0, std::chrono::milliseconds(10));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->version, 1u);
}

TEST(Cache, BlockingGetTimesOutOnStaleVersion) {
  DistributedCache cache;
  cache.put("k", bytes_of({5}));
  // Demand version > 1, nobody writes: timeout.
  auto v = cache.get_blocking("k", 1, std::chrono::milliseconds(20));
  EXPECT_FALSE(v.has_value());
}

TEST(Cache, BlockingGetWakesOnWrite) {
  DistributedCache cache;
  std::thread writer([&cache] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cache.put("k", bytes_of({7}));
  });
  auto v = cache.get_blocking("k", 0, std::chrono::seconds(5));
  writer.join();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(read_bytes(*v), bytes_of({7}));
}

TEST(Cache, ConcurrentWritersKeepCountsConsistent) {
  DistributedCache cache;
  constexpr int kThreads = 4;
  constexpr int kWrites = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kWrites; ++i)
        cache.put("key/" + std::to_string(t) + "/" + std::to_string(i),
                  Bytes(8, static_cast<std::uint8_t>(i)));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.num_keys(), kThreads * kWrites);
  EXPECT_EQ(cache.stats().puts, kThreads * kWrites);
  EXPECT_EQ(cache.resident_bytes(), kThreads * kWrites * 8u);
}

TEST(Cache, ConcurrentSameKeyVersionsAreDense) {
  DistributedCache cache;
  constexpr int kThreads = 4;
  constexpr int kWrites = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&cache] {
      for (int i = 0; i < kWrites; ++i) cache.put("hot", Bytes{1});
    });
  for (auto& th : threads) th.join();
  // Every write bumped the version exactly once.
  EXPECT_EQ(cache.version("hot"), kThreads * kWrites);
}

TEST(Cache, ClearEmptiesStore) {
  DistributedCache cache;
  cache.put("a", bytes_of({1}));
  cache.put("b", bytes_of({2}));
  cache.clear();
  EXPECT_EQ(cache.num_keys(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

// ---- Virtual-time reads (simulation-driven callers) ----

TEST(Cache, VirtualBlockingGetHitsImmediately) {
  DistributedCache cache;
  sim::Engine engine;
  cache.put("k", bytes_of({1, 2}));
  const auto v = cache.get_blocking("k", 0, engine, 5.0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->version, 1u);
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);  // no virtual time consumed
}

TEST(Cache, VirtualBlockingGetRespectsMinVersion) {
  DistributedCache cache;
  sim::Engine engine;
  cache.put("k", bytes_of({1}));
  // Version 1 is not > 1: deterministic miss, counted as a timeout.
  EXPECT_FALSE(cache.get_blocking("k", 1, engine, 5.0).has_value());
  cache.put("k", bytes_of({2}));
  const auto v = cache.get_blocking("k", 1, engine, 5.0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->version, 2u);
}

TEST(Cache, AsyncGetFiresWhenKeyIsPublished) {
  DistributedCache cache;
  sim::Engine engine;
  std::optional<CacheValue> got;
  double fired_at = -1.0;
  cache.get_async("k", 0, engine, 10.0, [&](auto v) {
    got = std::move(v);
    fired_at = engine.now();
  });
  EXPECT_EQ(cache.pending_waiters(), 1u);
  engine.schedule_at(2.0, [&] { cache.put("k", bytes_of({7})); });
  engine.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(read_bytes(*got), bytes_of({7}));
  EXPECT_DOUBLE_EQ(fired_at, 2.0);  // same timestamp as the put
  EXPECT_EQ(cache.pending_waiters(), 0u);
}

TEST(Cache, AsyncGetAlreadySatisfiedFiresAtCurrentTime) {
  DistributedCache cache;
  sim::Engine engine;
  cache.put("k", bytes_of({1}));
  bool fired = false;
  cache.get_async("k", 0, engine, 10.0, [&](auto v) {
    fired = true;
    EXPECT_TRUE(v.has_value());
  });
  EXPECT_FALSE(fired);  // delivered via the engine, not inline
  engine.run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
}

TEST(Cache, AsyncGetTimesOutAtVirtualDeadline) {
  DistributedCache cache;
  sim::Engine engine;
  std::optional<CacheValue> got = CacheValue{};  // sentinel
  double fired_at = -1.0;
  cache.get_async("missing", 0, engine, 3.0, [&](auto v) {
    got = std::move(v);
    fired_at = engine.now();
  });
  engine.run();
  EXPECT_FALSE(got.has_value());
  EXPECT_DOUBLE_EQ(fired_at, 3.0);
  EXPECT_EQ(cache.pending_waiters(), 0u);
}

TEST(Cache, AsyncGetPutCancelsTheDeadline) {
  DistributedCache cache;
  sim::Engine engine;
  int fires = 0;
  cache.get_async("k", 0, engine, 3.0, [&](auto) { ++fires; });
  engine.schedule_at(1.0, [&] { cache.put("k", bytes_of({1})); });
  engine.run();
  EXPECT_EQ(fires, 1);                  // deadline did not also fire
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);  // nor did it drag the clock to 3.0
}

TEST(Cache, PutWakesOnlyMatchingWaiters) {
  DistributedCache cache;
  sim::Engine engine;
  int a_fires = 0, b_fires = 0;
  cache.get_async("a", 0, engine, 0.0, [&](auto) { ++a_fires; });
  cache.get_async("b", 0, engine, 0.0, [&](auto) { ++b_fires; });
  cache.put("a", bytes_of({1}));
  engine.run();
  EXPECT_EQ(a_fires, 1);
  EXPECT_EQ(b_fires, 0);
  EXPECT_EQ(cache.pending_waiters(), 1u);
}

}  // namespace
}  // namespace stellaris::cache
