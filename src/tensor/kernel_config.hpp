// Kernel thread count. The kernels always run on the calling thread: the
// only source of parallelism is the execution driver's worker pool
// (sim/driver.hpp), which runs whole invocation bodies concurrently. The
// constant stays so host/build fingerprints can keep reporting it.
#pragma once

#include <cstddef>

namespace stellaris::ops {

inline constexpr std::size_t kernel_threads() { return 1; }

}  // namespace stellaris::ops
