#include "util/annotated_mutex.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

namespace stellaris::detail {

namespace {

struct HeldLock {
  const void* mu;
  const char* name;
  int rank;
};

// Per-thread stack of currently held locks, in acquisition order. Ranks
// strictly increase along it, so its depth is bounded by the number of
// lock_rank levels, far below kMaxHeld. The storage is trivially
// destructible on purpose: a mutex locked while statics are destroyed at
// exit (a static registry or pool's destructor, say) runs after the main
// thread's thread_local objects are gone, and must not touch a destroyed
// vector.
constexpr std::size_t kMaxHeld = 32;

struct HeldStack {
  HeldLock locks[kMaxHeld];
  std::size_t depth;
};

thread_local HeldStack held{};

}  // namespace

void lock_order_push(const void* mu, const char* name, int rank) {
  if (held.depth > 0 && rank <= held.locks[held.depth - 1].rank) {
    // Deliberately abort (not throw): a hierarchy violation is a latent
    // deadlock, and aborting makes it deterministic and test-assertable.
    const HeldLock& top = held.locks[held.depth - 1];
    std::fprintf(stderr,
                 "stellaris lock-order violation: acquiring \"%s\" (rank %d) "
                 "while holding \"%s\" (rank %d); locks must be acquired in "
                 "strictly increasing rank order (see DESIGN.md §11)\n",
                 name, rank, top.name, top.rank);
    std::abort();
  }
  if (held.depth == kMaxHeld) {
    std::fprintf(stderr,
                 "stellaris lock-order check: more than %zu nested locks "
                 "when acquiring \"%s\"\n",
                 kMaxHeld, name);
    std::abort();
  }
  held.locks[held.depth++] = {mu, name, rank};
}

void lock_order_pop(const void* mu) {
  // Releases are almost always LIFO; MutexLock::unlock() can release out
  // of order, so search from the back.
  for (std::size_t i = held.depth; i-- > 0;) {
    if (held.locks[i].mu == mu) {
      std::copy(held.locks + i + 1, held.locks + held.depth, held.locks + i);
      --held.depth;
      return;
    }
  }
}

}  // namespace stellaris::detail
