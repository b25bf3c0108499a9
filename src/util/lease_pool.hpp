// A free list of reusable scratch objects, leased one per body execution.
//
// Invocation bodies (sim/driver.hpp) need per-execution scratch — models,
// batch-ingest buffers — and under the concurrent driver several bodies run
// at once, so the scratch cannot be shared. lease() pops the most recently
// returned object (LIFO: the warmest one is reused first) or, when the free
// list is empty, constructs a new T from the pool's stored constructor
// arguments. Construction happens outside the lock, because it may run model
// init kernels. The RAII Lease puts the object back on destruction.
//
// Pooled objects must be scratch by construction: a body overwrites every
// field before reading it, so WHICH object a body draws never affects
// results — only how many constructions warm-up performs (why
// allocation-count diagnostics are excluded from the cross-driver identity
// check; DESIGN.md §14).
//
// The pool mutex is held only inside lease() and give_back(), never across a
// lease. A thread holding leases from two pools therefore holds no pool
// lock, and every pool shares one rank (lock_rank::kLeasePool).
#pragma once

#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "util/annotated_mutex.hpp"

namespace stellaris {

template <typename T, typename... Args>
class LeasePool {
 public:
  /// `args` are stored and passed to the constructor of every T the pool
  /// builds.
  explicit LeasePool(Args... args) : args_(std::move(args)...) {}

  /// RAII lease: returns the object to the free list on destruction.
  class Lease {
   public:
    Lease(LeasePool* pool, std::unique_ptr<T> obj)
        : pool_(pool), obj_(std::move(obj)) {}
    ~Lease() {
      if (obj_) pool_->give_back(std::move(obj_));
    }
    Lease(Lease&&) = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    T* operator->() { return obj_.get(); }
    T& operator*() { return *obj_; }

   private:
    LeasePool* pool_;
    std::unique_ptr<T> obj_;
  };

  /// Thread-safe; called at body start on whichever thread runs the body.
  Lease lease() EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (!free_.empty()) {
        std::unique_ptr<T> obj = std::move(free_.back());
        free_.pop_back();
        return Lease(this, std::move(obj));
      }
    }
    return Lease(this, std::apply(
                           [](const Args&... args) {
                             return std::make_unique<T>(args...);
                           },
                           args_));
  }

 private:
  void give_back(std::unique_ptr<T> obj) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    free_.push_back(std::move(obj));
  }

  const std::tuple<Args...> args_;
  Mutex mu_{"util/lease-pool", lock_rank::kLeasePool};
  std::vector<std::unique_ptr<T>> free_ GUARDED_BY(mu_);
};

}  // namespace stellaris
