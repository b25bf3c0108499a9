// Bit-exactness and semantics tests for the blocked kernel library.
//
// The blocked GEMMs promise results bit-identical to the retained seed
// kernels (ops::reference): they tile i/j and
// accumulate each output element's k terms in ascending order from 0 (a
// k chunk resumes from the partial sum the previous chunk stored).
// These tests pin that contract across tile-interior, tile-edge, prime,
// and degenerate shapes, plus the IEEE semantics (NaN propagation) that
// the seed's zero-skip branch used to violate. Kernels run on the calling
// thread, and the concurrent driver's workers call them at the same time,
// so the concurrent-caller tests pin that results do not depend on which
// or how many threads call in.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "run_on_threads.hpp"
#include "tensor/ops.hpp"
#include "tensor/scratch.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace stellaris {
namespace {

// Bitwise tensor equality: shape and every float's bit pattern.
void expect_bit_identical(const Tensor& a, const Tensor& b,
                          const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  if (a.numel() == 0) return;
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.numel() * sizeof(float)),
            0)
      << what;
}

struct GemmDims {
  std::size_t m, k, n;
};

class BlockedVsReference : public ::testing::TestWithParam<GemmDims> {};

TEST_P(BlockedVsReference, AllVariantsBitIdentical) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 1000003 + k * 1009 + n);
  const Tensor a_nn = Tensor::randn({m, k}, rng);
  const Tensor b_nn = Tensor::randn({k, n}, rng);
  expect_bit_identical(ops::matmul(a_nn, b_nn),
                       ops::reference::matmul(a_nn, b_nn), "matmul");

  const Tensor a_tn = Tensor::randn({k, m}, rng);
  expect_bit_identical(ops::matmul_tn(a_tn, b_nn),
                       ops::reference::matmul_tn(a_tn, b_nn), "matmul_tn");

  const Tensor b_nt = Tensor::randn({n, k}, rng);
  expect_bit_identical(ops::matmul_nt(a_nn, b_nt),
                       ops::reference::matmul_nt(a_nn, b_nt), "matmul_nt");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedVsReference,
    ::testing::Values(GemmDims{1, 1, 1},            // single element
                      GemmDims{7, 11, 13},          // primes < one tile
                      GemmDims{67, 43, 129},        // primes across tiles
                      GemmDims{4, 8, 48},           // exactly one full tile row
                      GemmDims{64, 64, 64},         // 48+16 column split
                      GemmDims{128, 32, 128},       // 48+48+32 column split
                      GemmDims{5, 3, 17},           // scalar-tail columns
                      GemmDims{130, 7, 250},        // multiple row panels
                      GemmDims{0, 4, 5},            // zero rows
                      GemmDims{4, 0, 5},            // zero inner dim
                      GemmDims{4, 5, 0}));          // zero columns

// The narrow path (n == 4 or n == 8): its own micro-kernel, a tn that reads
// A in place, and k cut into 256-step chunks that each resume from the
// partial sums stored in C. The shapes cross the chunk boundary (k = 255,
// 256, 257, 1000), hit every row remainder mod 4, and include the conv1
// shapes of the atari torso. Each is memcmp'd against the reference, both
// from the test thread and from four threads calling in at once.
class NarrowVsReference : public ::testing::TestWithParam<GemmDims> {};

TEST_P(NarrowVsReference, BitIdenticalToReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 1000003 + k * 1009 + n);
  const Tensor a_nn = Tensor::randn({m, k}, rng);
  const Tensor a_tn = Tensor::randn({k, m}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  const Tensor want_nn = ops::reference::matmul(a_nn, b);
  const Tensor want_tn = ops::reference::matmul_tn(a_tn, b);
  expect_bit_identical(ops::matmul(a_nn, b), want_nn, "narrow matmul");
  expect_bit_identical(ops::matmul_tn(a_tn, b), want_tn, "narrow matmul_tn");
}

constexpr std::size_t kCallers = 4;

TEST_P(NarrowVsReference, BitIdenticalFromConcurrentCallers) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 1000003 + k * 1009 + n);
  const Tensor a_nn = Tensor::randn({m, k}, rng);
  const Tensor a_tn = Tensor::randn({k, m}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  const Tensor want_nn = ops::reference::matmul(a_nn, b);
  const Tensor want_tn = ops::reference::matmul_tn(a_tn, b);
  // Two calls per caller: the second reuses that thread's scratch pool.
  std::vector<Tensor> nn(2 * kCallers), tn(2 * kCallers);
  testing_util::run_on_threads(kCallers, 2 * kCallers, [&](std::size_t i) {
    nn[i] = ops::matmul(a_nn, b);
    tn[i] = ops::matmul_tn(a_tn, b);
  });
  for (std::size_t i = 0; i < 2 * kCallers; ++i) {
    expect_bit_identical(nn[i], want_nn, "concurrent narrow matmul");
    expect_bit_identical(tn[i], want_tn, "concurrent narrow matmul_tn");
  }
}

std::vector<GemmDims> narrow_shapes() {
  std::vector<GemmDims> out;
  for (const std::size_t n : {4u, 8u})
    for (const std::size_t m : {1u, 2u, 3u, 128u, 129u, 130u, 131u})
      for (const std::size_t k : {255u, 256u, 257u, 1000u})
        out.push_back({m, k, n});
  out.push_back({24576, 75, 8});  // conv1 forward: (N·oh·ow, patch) x W
  out.push_back({75, 24576, 8});  // conv1 dW: colsᵀ x dy, k = N·oh·ow
  out.push_back({5, 0, 8});       // empty sum: zeros
  return out;
}

INSTANTIATE_TEST_SUITE_P(Shapes, NarrowVsReference,
                         ::testing::ValuesIn(narrow_shapes()));

// A NaN or Inf in a later k chunk of the narrow matmul_tn must survive the
// store and reload of the partial sums: 0·NaN is NaN, and Inf plus the
// finite first chunk stays Inf.
TEST(GemmIeeeSemantics, NarrowTnPropagatesFromLaterChunk) {
  const std::size_t k = 600, m = 5, n = 8;
  Rng rng(31);
  Tensor a = Tensor::randn({k, m}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  a.at(300, 1) = std::numeric_limits<float>::quiet_NaN();  // second chunk
  for (std::size_t j = 0; j < n; ++j) b.at(300, j) = 0.0f;
  a.at(520, 3) = std::numeric_limits<float>::infinity();   // third chunk
  for (std::size_t j = 0; j < n; ++j) b.at(520, j) = 1.0f;

  Tensor c = ops::matmul_tn(a, b);
  Tensor want = ops::reference::matmul_tn(a, b);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_TRUE(std::isnan(c.at(1, j))) << "NaN row, column " << j;
    EXPECT_EQ(c.at(3, j), std::numeric_limits<float>::infinity())
        << "Inf row, column " << j;
  }
  for (const std::size_t i : {0u, 2u, 4u})
    EXPECT_EQ(std::memcmp(&c.at(i, 0), &want.at(i, 0), n * sizeof(float)), 0)
        << "clean row " << i;
}

TEST(BlockedGemm, ZeroInnerDimYieldsZeros) {
  // k = 0 means every output element is an empty sum: exactly 0.0f.
  const Tensor c = ops::matmul(Tensor({3, 0}), Tensor({0, 2}));
  ASSERT_EQ(c.shape(), (Shape{3, 2}));
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], 0.0f);
}

TEST(BlockedGemm, ConcurrentCallersBitIdenticalToSerial) {
  Rng rng(7);
  const Tensor a = Tensor::randn({190, 67}, rng);
  const Tensor b = Tensor::randn({67, 143}, rng);
  const Tensor a_t = Tensor::randn({67, 190}, rng);
  const Tensor b_t = Tensor::randn({143, 67}, rng);
  const Tensor serial_nn = ops::matmul(a, b);
  const Tensor serial_tn = ops::matmul_tn(a_t, b);
  const Tensor serial_nt = ops::matmul_nt(a, b_t);

  // Each caller writes through the _into variants twice into its own
  // output, so the second call reuses both the output and the pack scratch.
  std::vector<Tensor> nn(kCallers), tn(kCallers), nt(kCallers);
  testing_util::run_on_threads(kCallers, kCallers, [&](std::size_t i) {
    for (int rep = 0; rep < 2; ++rep) {
      ops::matmul_into(nn[i], a, b);
      ops::matmul_tn_into(tn[i], a_t, b);
      ops::matmul_nt_into(nt[i], a, b_t);
    }
  });
  for (std::size_t i = 0; i < kCallers; ++i) {
    expect_bit_identical(nn[i], serial_nn, "nn concurrent");
    expect_bit_identical(tn[i], serial_tn, "tn concurrent");
    expect_bit_identical(nt[i], serial_nt, "nt concurrent");
  }
}

TEST(BlockedGemm, IntoVariantsMatchValueVariants) {
  Rng rng(9);
  const Tensor a = Tensor::randn({33, 21}, rng);
  const Tensor b = Tensor::randn({21, 50}, rng);
  Tensor c({5});  // wrong shape and size: _into must reshape it
  ops::matmul_into(c, a, b);
  expect_bit_identical(c, ops::matmul(a, b), "matmul_into");

  // Reusing the (now bigger) buffer must not change results.
  const Tensor a2 = Tensor::randn({4, 21}, rng);
  ops::matmul_into(c, a2, b);
  expect_bit_identical(c, ops::matmul(a2, b), "matmul_into reuse");
}

TEST(BlockedGemm, IntoRejectsAliasedOutput) {
  Tensor a = Tensor::ones({4, 4});
  Tensor b = Tensor::ones({4, 4});
  EXPECT_THROW(ops::matmul_into(a, a, b), Error);
  EXPECT_THROW(ops::matmul_into(b, a, b), Error);
  EXPECT_THROW(ops::matmul_tn_into(a, a, b), Error);
  EXPECT_THROW(ops::matmul_nt_into(b, a, b), Error);
}

// The seed kernels skipped k terms where A's element was exactly 0.0f. IEEE
// requires 0·NaN = NaN and 0·Inf = NaN, so a NaN in the *other* operand must
// poison the output even when multiplied by zero. Satellite regression: all
// three variants propagate NaN.
TEST(GemmIeeeSemantics, NanInAPropagatesThroughZeroB) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor a({2, 3});
  a[4] = nan;  // a(1,1)
  const Tensor b({3, 2});  // all zeros

  const Tensor c = ops::matmul(a, b);
  EXPECT_TRUE(std::isnan(c.at(1, 0))) << "matmul row with NaN";
  EXPECT_TRUE(std::isnan(c.at(1, 1)));
  EXPECT_EQ(c.at(0, 0), 0.0f) << "clean row stays clean";

  // tn: A is (k, m) = (3, 2); poison a(1, 1) -> output row 1.
  Tensor at({3, 2});
  at[3] = nan;
  const Tensor ct = ops::matmul_tn(at, Tensor({3, 2}));
  EXPECT_TRUE(std::isnan(ct.at(1, 0))) << "matmul_tn";
  EXPECT_EQ(ct.at(0, 0), 0.0f);

  // nt: B is (n, k); a NaN multiplied by B's zeros.
  const Tensor cn = ops::matmul_nt(a, Tensor({2, 3}));
  EXPECT_TRUE(std::isnan(cn.at(1, 0))) << "matmul_nt";
  EXPECT_EQ(cn.at(0, 0), 0.0f);
}

TEST(GemmIeeeSemantics, ReferenceKernelsAlsoPropagate) {
  // The retained oracle must share the fixed semantics, or the bit-compare
  // tests above would be vacuous on poisoned inputs.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor a({1, 2});
  a[0] = nan;
  EXPECT_TRUE(std::isnan(ops::reference::matmul(a, Tensor({2, 1}))[0]));
  Tensor at({2, 1});
  at[0] = nan;
  EXPECT_TRUE(std::isnan(ops::reference::matmul_tn(at, Tensor({2, 1}))[0]));
  EXPECT_TRUE(std::isnan(ops::reference::matmul_nt(a, Tensor({1, 2}))[0]));
}

// -- elementwise _into kernels ----------------------------------------------

TEST(ElementwiseInto, MatchesReference) {
  Rng rng(11);
  const Tensor x = Tensor::randn({37, 53}, rng);
  Tensor out;
  ops::tanh_forward_into(out, x);
  expect_bit_identical(out, ops::reference::tanh_forward(x), "tanh");
  ops::relu_forward_into(out, x);
  expect_bit_identical(out, ops::reference::relu_forward(x), "relu");
  ops::softmax_rows_into(out, x);
  expect_bit_identical(out, ops::reference::softmax_rows(x), "softmax");
  ops::log_softmax_rows_into(out, x);
  expect_bit_identical(out, ops::reference::log_softmax_rows(x),
                       "log_softmax");
  ops::sum_rows_into(out, x);
  expect_bit_identical(out, ops::reference::sum_rows(x), "sum_rows");
}

TEST(ElementwiseInto, OutputMayAliasInput) {
  Rng rng(13);
  Tensor x = Tensor::randn({8, 9}, rng);
  const Tensor expected = ops::reference::softmax_rows(x);
  ops::softmax_rows_into(x, x);  // in place
  expect_bit_identical(x, expected, "softmax in place");

  Tensor y = Tensor::randn({40}, rng);
  const Tensor expected_tanh = ops::reference::tanh_forward(y);
  ops::tanh_forward_into(y, y);
  expect_bit_identical(y, expected_tanh, "tanh in place");
}

TEST(ElementwiseInto, SoftmaxHandlesZeroColumns) {
  Tensor lp;
  ops::softmax_rows_into(lp, Tensor({3, 0}));
  EXPECT_EQ(lp.shape(), (Shape{3, 0}));
  ops::log_softmax_rows_into(lp, Tensor({3, 0}));
  EXPECT_EQ(lp.shape(), (Shape{3, 0}));
}

TEST(ElementwiseInto, TanhFromConcurrentCallersBitIdentical) {
  Rng rng(17);
  const Tensor x = Tensor::randn({600, 80}, rng);
  Tensor serial;
  ops::tanh_forward_into(serial, x);
  std::vector<Tensor> out(kCallers);
  testing_util::run_on_threads(kCallers, kCallers, [&](std::size_t i) {
    ops::tanh_forward_into(out[i], x);
  });
  for (const Tensor& y : out) expect_bit_identical(y, serial, "tanh concurrent");
}

// -- tanh ----------------------------------------------------------------------
// tanh_forward_into runs a four-lane port of glibc's tanhf and falls back to
// the scalar port (ops::tanh_scalar) for tails and for chunks holding a
// lane outside 2^-26 <= |x| < 19.5. Both must give std::tanh's bits.

std::uint32_t float_bits(float f) { return std::bit_cast<std::uint32_t>(f); }

float bits_float(std::uint32_t u) { return std::bit_cast<float>(u); }

// Runs the kernel over `xs` and compares every output with the scalar port
// and with libm. Returns the number of mismatches; reports the first few.
std::size_t count_tanh_mismatches(const std::vector<float>& xs) {
  const Tensor x({xs.size()}, xs);
  Tensor y;
  ops::tanh_forward_into(y, x);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::uint32_t got = float_bits(y[i]);
    const std::uint32_t port = float_bits(ops::tanh_scalar(xs[i]));
    const std::uint32_t libm = float_bits(std::tanh(xs[i]));
    if (got == port && port == libm) continue;
    if (++bad <= 8)
      ADD_FAILURE() << std::hexfloat << "x = " << xs[i] << " (0x" << std::hex
                    << float_bits(xs[i]) << "): kernel 0x" << got
                    << ", scalar port 0x" << port << ", std::tanh 0x" << libm;
  }
  return bad;
}

TEST(TanhKernel, SweepMatchesScalarPortAndLibm) {
  std::vector<float> xs;
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 4099)
    xs.push_back(bits_float(static_cast<std::uint32_t>(b)));
  // Both sides of each bound, as |x| bit patterns: the kernel's 2^-26 and
  // 19.5, expm1f's 0.5·ln2 and 1.5·ln2 (halved: tanh passes 2|x|), |x| = 1
  // where tanhf switches formula, ~7.8 where k reaches 23, ~19.58 where it
  // passes 56, 22 where tanhf returns ±1, the |x| < 2^-55 shortcut, the
  // smallest subnormals and the largest finite float.
  const std::uint32_t bounds[] = {0x32800000, 0x419c0000, 0x3e317218,
                                  0x3f051592, 0x3f800000, 0x40f98872,
                                  0x419ca6b9, 0x41b00000, 0x24000000,
                                  0x00000001, 0x00800000, 0x7f7fffff};
  for (const std::uint32_t b : bounds)
    for (std::uint32_t d = 0; d < 5; ++d)
      for (const std::uint32_t sign : {0u, 0x80000000u}) {
        xs.push_back(bits_float((b + d - 2) | sign));
        xs.push_back(0.5f);  // shifts the next bound to another lane
      }
  for (const std::uint32_t special :
       {0x00000000u, 0x80000000u, 0x7f800000u, 0xff800000u, 0x7fc00000u,
        0xffc00001u, 0x7f800001u, 0x007fffffu, 0x807fffffu})
    for (std::size_t lane = 0; lane < 4; ++lane) {
      while (xs.size() % 4 != lane) xs.push_back(0.75f);
      xs.push_back(bits_float(special));
    }
  EXPECT_EQ(count_tanh_mismatches(xs), 0u);
}

TEST(TanhKernel, EveryTailLengthAndInPlace) {
  Rng rng(19);
  for (std::size_t n = 0; n <= 9; ++n) {
    Tensor x = Tensor::randn({n}, rng, 3.0f);
    if (n > 5) x[5] = 1e-9f;  // one rare lane sends its chunk scalar
    const Tensor expected = ops::reference::tanh_forward(x);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(float_bits(expected[i]), float_bits(std::tanh(x[i]))) << n;
    Tensor y;
    ops::tanh_forward_into(y, x);
    expect_bit_identical(y, expected, "tanh tail");
    ops::tanh_forward_into(x, x);
    expect_bit_identical(x, expected, "tanh tail in place");
  }
}

// All 2^32 inputs (about a minute in a Release build). Disabled in the tier-1
// run; CI's FMA determinism job runs it with --gtest_also_run_disabled_tests.
TEST(TanhKernel, DISABLED_ExhaustiveMatchesScalarPortAndLibm) {
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 20;
  std::vector<float> xs(kChunk);
  std::size_t bad = 0;
  for (std::uint64_t base = 0; base < (std::uint64_t{1} << 32);
       base += kChunk) {
    for (std::uint64_t i = 0; i < kChunk; ++i)
      xs[i] = bits_float(static_cast<std::uint32_t>(base + i));
    bad += count_tanh_mismatches(xs);
  }
  EXPECT_EQ(bad, 0u);
}

// -- scratch pool ------------------------------------------------------------

TEST(ScratchPool, ReusesReturnedBuffers) {
  ops::ScratchPool pool;
  const float* p0 = nullptr;
  {
    auto lease = pool.take({16, 16});
    p0 = lease->data().data();
    EXPECT_EQ(lease->shape(), (Shape{16, 16}));
  }
  EXPECT_EQ(pool.pooled(), 1u);
  {
    // Smaller request: served from the same buffer, no new allocation.
    auto lease = pool.take({4, 4});
    EXPECT_EQ(lease->data().data(), p0);
    EXPECT_EQ(pool.pooled(), 0u);
  }
  EXPECT_EQ(pool.pooled(), 1u);
}

TEST(ScratchPool, PrefersSmallestSufficientBuffer) {
  ops::ScratchPool pool;
  const float* big = nullptr;
  const float* small = nullptr;
  {
    auto a = pool.take({100});
    auto b = pool.take({10});
    big = a->data().data();
    small = b->data().data();
  }
  EXPECT_EQ(pool.pooled(), 2u);
  {
    auto lease = pool.take({8});
    EXPECT_EQ(lease->data().data(), small)
        << "an oversized buffer must not be pinned to a small request";
  }
  {
    auto lease = pool.take({64});
    EXPECT_EQ(lease->data().data(), big);
  }
}

TEST(ScratchPool, LocalPoolBelongsToTheCallingThread) {
  ops::ScratchPool& mine = ops::ScratchPool::local();
  EXPECT_EQ(&ops::ScratchPool::local(), &mine);
  const std::size_t parked = mine.pooled();
  bool shared = true;
  std::size_t theirs_parked = 0;
  testing_util::run_on_threads(1, 1, [&](std::size_t) {
    ops::ScratchPool& theirs = ops::ScratchPool::local();
    shared = &theirs == &mine;
    { auto lease = theirs.take({32}); }
    theirs_parked = theirs.pooled();
  });
  EXPECT_FALSE(shared);
  EXPECT_EQ(theirs_parked, 1u) << "the lease returns to its own thread's pool";
  EXPECT_EQ(mine.pooled(), parked)
      << "another thread's lease must not land in this thread's pool";
}

TEST(ScratchPool, KernelsReachSteadyStateWithoutAllocating) {
  Rng rng(23);
  const Tensor a = Tensor::randn({40, 30}, rng);
  const Tensor b = Tensor::randn({40, 50}, rng);
  Tensor c;
  ops::matmul_tn_into(c, a, b);  // warm-up populates the thread-local pool
  const std::uint64_t before = tensor_buffer_allocs();
  for (int i = 0; i < 5; ++i) ops::matmul_tn_into(c, a, b);
  EXPECT_EQ(tensor_buffer_allocs(), before)
      << "steady-state matmul_tn must reuse its pack scratch";
}

}  // namespace
}  // namespace stellaris
