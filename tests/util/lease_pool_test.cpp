#include "util/lease_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "run_on_threads.hpp"

namespace stellaris {
namespace {

struct Scratch {
  explicit Scratch(std::atomic<int>* builds) { ++*builds; }
  int owner = -1;
};
using ScratchPool = LeasePool<Scratch, std::atomic<int>*>;

TEST(LeasePool, BuildsOnlyWhenFreeListIsEmpty) {
  std::atomic<int> builds{0};
  ScratchPool pool(&builds);
  { auto a = pool.lease(); }
  EXPECT_EQ(builds, 1);
  { auto a = pool.lease(); }  // reuses the returned object
  EXPECT_EQ(builds, 1);
  {
    auto a = pool.lease();
    auto b = pool.lease();  // free list empty while `a` is out
    EXPECT_EQ(builds, 2);
  }
  {
    auto a = pool.lease();
    auto b = pool.lease();
    EXPECT_EQ(builds, 2);
  }
}

TEST(LeasePool, ReusesLeasesLifo) {
  std::atomic<int> builds{0};
  ScratchPool pool(&builds);
  Scratch* first = nullptr;
  Scratch* second = nullptr;
  {
    auto a = pool.lease();
    auto b = pool.lease();
    first = &*a;
    second = &*b;
  }  // `b` is returned first, then `a`: `a` is now on top
  auto top = pool.lease();
  EXPECT_EQ(&*top, first);
  auto next = pool.lease();
  EXPECT_EQ(&*next, second);
  EXPECT_EQ(builds, 2);
}

TEST(LeasePool, MovedFromLeaseReturnsNothing) {
  std::atomic<int> builds{0};
  ScratchPool pool(&builds);
  {
    auto a = pool.lease();
    auto moved = std::move(a);
  }  // exactly one object comes back
  auto a = pool.lease();
  auto b = pool.lease();
  EXPECT_EQ(builds, 2);
}

// Construction may take locks ranked below the pool's (model init runs
// kernels through the kernel pool), so the pool must build outside its
// lock: building under it would be a rank inversion and abort.
struct LockingScratch {
  explicit LockingScratch(Mutex* below) { MutexLock lock(*below); }
};

TEST(LeasePool, BuildsOutsideTheLock) {
  Mutex below("test/below-lease-pool", lock_rank::kLeasePool - 1);
  LeasePool<LockingScratch, Mutex*> pool(&below);
  auto a = pool.lease();
  auto b = pool.lease();
}

TEST(LeasePool, TwoPoolsHoldLeasesAtOnce) {
  // Every pool shares lock_rank::kLeasePool. That is safe only because no
  // pool lock is held across a lease: leasing from `b` while holding a
  // lease from `a` must not trip the lock-order checker.
  std::atomic<int> builds_a{0};
  std::atomic<int> builds_b{0};
  ScratchPool a(&builds_a);
  ScratchPool b(&builds_b);
  auto la = a.lease();
  auto lb = b.lease();
  auto la2 = a.lease();
  la->owner = 1;
  lb->owner = 2;
  EXPECT_EQ(builds_a, 2);
  EXPECT_EQ(builds_b, 1);
}

TEST(LeasePool, ConcurrentLeasesFromTwoPools) {
  std::atomic<int> builds_a{0};
  std::atomic<int> builds_b{0};
  ScratchPool a(&builds_a);
  ScratchPool b(&builds_b);
  testing_util::run_on_threads(4, 256, [&](std::size_t i) {
    auto la = a.lease();
    auto lb = b.lease();
    la->owner = static_cast<int>(i);  // a lease is exclusive to its holder
    lb->owner = static_cast<int>(i);
    EXPECT_EQ(la->owner, static_cast<int>(i));
    EXPECT_EQ(lb->owner, static_cast<int>(i));
  });
  // Every lease came back: holding `built` leases at once builds nothing.
  const int built = builds_a;
  EXPECT_GE(built, 1);
  std::vector<ScratchPool::Lease> held;
  for (int i = 0; i < built; ++i) held.push_back(a.lease());
  EXPECT_EQ(builds_a, built);
  held.push_back(a.lease());
  EXPECT_EQ(builds_a, built + 1);
}

}  // namespace
}  // namespace stellaris
