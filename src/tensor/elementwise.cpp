// Elementwise / activation / softmax-family kernels.
//
// Each kernel is a contiguous single-pass loop written for the
// autovectorizer, in a value-returning and a buffer-reusing `_into` form.
// Arithmetic per element is kept identical to the seed kernels (now under
// ops::reference) so the rewrite is bit-transparent to the learner.
//
// tanh is the exception: libm's tanhf is a scalar call per element, so
// tanh_forward_into runs a vector port of the same algorithm (glibc 2.36's
// fdlibm-derived tanhf/expm1f) that returns the same bits for every input,
// eight lanes wide on CPUs with AVX2 and four wide elsewhere; tanh_scalar
// is the scalar port and the kernels' fallback.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "obs/metrics.hpp"
#include "tensor/ops.hpp"

namespace stellaris::ops {
namespace {

obs::Counter& eltwise_calls() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("kernel.eltwise_calls");
  return c;
}

obs::Counter& eltwise_elems() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("kernel.eltwise_elems");
  return c;
}

void count_eltwise(std::size_t n) {
  eltwise_calls().add(1);
  eltwise_elems().add(n);
}

}  // namespace

void add_bias_rows(Tensor& x, const Tensor& bias) {
  STELLARIS_CHECK_MSG(x.rank() == 2 && bias.rank() == 1 &&
                          bias.dim(0) == x.dim(1),
                      "bias shape mismatch");
  count_eltwise(x.numel());
  const std::size_t m = x.dim(0), n = x.dim(1);
  float* px = x.data().data();
  const float* pb = bias.data().data();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) px[i * n + j] += pb[j];
}

void sum_rows_into(Tensor& out, const Tensor& x) {
  STELLARIS_CHECK_MSG(x.rank() == 2, "sum_rows needs a 2-D tensor");
  STELLARIS_CHECK_MSG(&out != &x, "sum_rows_into: output aliases input");
  count_eltwise(x.numel());
  const std::size_t m = x.dim(0), n = x.dim(1);
  out.ensure_shape({n});
  float* po = out.data().data();
  std::fill(po, po + n, 0.0f);
  const float* px = x.data().data();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) po[j] += px[i * n + j];
}

Tensor sum_rows(const Tensor& x) {
  Tensor out;
  sum_rows_into(out, x);
  return out;
}

// -- tanh ---------------------------------------------------------------------
// glibc computes tanhf(x) from t = expm1f(±2|x|): 1 - 2/(t + 2) for
// |x| >= 1 and -t/(t + 2) below. expm1f(u) reduces u = k·ln2 + r with ln2
// split into ln2_hi + ln2_lo, evaluates a degree-5 polynomial in r²/2
// (Q1..Q5), and rebuilds the result on one of five branches of k. The
// constants are glibc's, given as bit patterns. Every step is an IEEE add,
// mul or div, a truncating convert, or integer arithmetic on exponent
// bits, so the port returns glibc's bits as long as the compiler neither
// contracts a*b + c into an FMA nor reassociates (root CMakeLists.txt).

namespace {

constexpr float f32(std::uint32_t bits) { return std::bit_cast<float>(bits); }

constexpr float kLn2Hi = f32(0x3f317180);
constexpr float kLn2Lo = f32(0x3717f7d1);
constexpr float kInvLn2 = f32(0x3fb8aa3b);
constexpr float kQ1 = f32(0xbd088889);
constexpr float kQ2 = f32(0x3ad00d01);
constexpr float kQ3 = f32(0xb8a670cd);
constexpr float kQ4 = f32(0x36867e54);
constexpr float kQ5 = f32(0xb457edbb);

// |u| bounds of expm1f's reduction, as bit patterns of |u|. Between them
// glibc takes k = ±1; from tanh only u < 0 lands there, so k = -1.
constexpr std::int32_t kHalfLn2 = 0x3eb17218;         // k = 0 at or below
constexpr std::int32_t kThreeHalvesLn2 = 0x3f851592;  // k = -1 below

// |x| bounds of the vector kernel, as bit patterns of |x|. Below 2^-26,
// expm1f(2x) takes its |u| < 2^-25 shortcut (and ±0 is returned as is);
// from 19.5 up k can pass 56, glibc's last polynomial branch, and from 22
// tanhf returns ±1. Chunks holding such a lane, inf or NaN go scalar.
constexpr std::int32_t kVecMin = 0x32800000;  // 2^-26
constexpr std::int32_t kVecMax = 0x419c0000;  // 19.5

// y · 2^k, by adding k to y's exponent field; y is normal and so is the
// result on every path that uses it.
float scale_by_pow2(float y, std::int32_t k) {
  return std::bit_cast<float>(std::bit_cast<std::int32_t>(y) + k * (1 << 23));
}

// glibc's expm1f on the arguments tanh_scalar passes it, -2 < u < 44: no
// overflow, no saturation to -1, and k is never 1 (a positive u is >= 2).
float expm1f_port(float u) {
  const std::int32_t hu = std::bit_cast<std::int32_t>(u) & 0x7fffffff;
  if (hu < 0x33000000) return u;  // |u| < 2^-25
  std::int32_t k = 0;
  float r = u, c = 0.0f;
  if (hu > kHalfLn2) {
    k = hu < kThreeHalvesLn2 ? -1
                             : static_cast<std::int32_t>(
                                   kInvLn2 * u + (u < 0.0f ? -0.5f : 0.5f));
    const float t = static_cast<float>(k);
    const float hi = u - t * kLn2Hi;
    const float lo = t * kLn2Lo;
    r = hi - lo;
    c = (hi - r) - lo;
  }
  const float hfx = 0.5f * r;
  const float hxs = r * hfx;
  const float r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - r * t));
  if (k == 0) return r - (r * e - hxs);
  e = (r * (e - c) - c) - hxs;
  if (k == -1) return 0.5f * (r - e) - 0.5f;
  if (k < 0 || k > 56) return scale_by_pow2(1.0f - (e - r), k) - 1.0f;
  const float two_mk = f32(static_cast<std::uint32_t>(0x7f - k) << 23);
  if (k < 23) return scale_by_pow2((1.0f - two_mk) - (e - r), k);
  return scale_by_pow2((r - (e + two_mk)) + 1.0f, k);
}

using V4 = float __attribute__((vector_size(16)));
using V4i = std::int32_t __attribute__((vector_size(16)));
using V8 = float __attribute__((vector_size(32)));
using V8i = std::int32_t __attribute__((vector_size(32)));

// tanh_scalar on one chunk of lanes (VF holds floats, VI int32s of the same
// width) with kVecMin <= |x| < kVecMax. Each lane evaluates every branch
// glibc could take for it and keeps the one its k selects; on these lanes
// k is 0, -1, -2 or -3 for |x| < 1 and 3..56 above. 2^-k comes from
// exponent bits, so 1 - 2^-k (exact for k < 24) needs no per-lane variable
// shift. Vectors go in and out through memory and every helper is a
// builtin, so a 32-byte instance passes no vector by value outside the
// AVX2 function it is inlined into (GCC's -Wpsabi ABI warning).
template <typename VF, typename VI>
[[gnu::always_inline]] inline void tanh_lanes(const float* px, float* py) {
  VF x;
  std::memcpy(&x, px, sizeof x);
  const VI bits = __builtin_bit_cast(VI, x);
  const VI abits = bits & 0x7fffffff;
  const VF ax = __builtin_bit_cast(VF, abits);
  const VI big = abits >= 0x3f800000;
  const VF u = big ? ax + ax : -(ax + ax);
  const VI hu = abits + (1 << 23);  // bits of |u| = 2|x|
  const VF half = big ? VF{} + 0.5f : VF{} - 0.5f;
  VI k = __builtin_convertvector(kInvLn2 * u + half, VI);
  k = hu < kThreeHalvesLn2 ? VI{} - 1 : k;
  k = hu <= kHalfLn2 ? VI{} : k;
  const VF t = __builtin_convertvector(k, VF);
  const VF hi = u - t * kLn2Hi;
  const VF lo = t * kLn2Lo;
  const VF r = hi - lo;  // == u where k == 0
  const VF c = (hi - r) - lo;
  const VF hfx = 0.5f * r;
  const VF hxs = r * hfx;
  const VF r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const VF t3 = 3.0f - r1 * hfx;
  const VF e = hxs * ((r1 - t3) / (6.0f - r * t3));
  const VF e2 = (r * (e - c) - c) - hxs;
  const VI kexp = k << 23;
  const VF two_mk = __builtin_bit_cast(VF, (0x7f << 23) - kexp);
  const VF k_zero = r - (r * e - hxs);
  const VF k_minus_one = 0.5f * (r - e2) - 0.5f;
  const VF k_negative =
      __builtin_bit_cast(VF, __builtin_bit_cast(VI, 1.0f - (e2 - r)) + kexp) -
      1.0f;
  const VF k_below_23 = __builtin_bit_cast(
      VF, __builtin_bit_cast(VI, (1.0f - two_mk) - (e2 - r)) + kexp);
  const VF k_from_23 = __builtin_bit_cast(
      VF, __builtin_bit_cast(VI, (r - (e2 + two_mk)) + 1.0f) + kexp);
  VF em1 = k < 23 ? k_below_23 : k_from_23;
  em1 = k < 0 ? k_negative : em1;
  em1 = k == -1 ? k_minus_one : em1;
  em1 = k == 0 ? k_zero : em1;
  // 2/(t + 2) and -t/(t + 2) are one division with a per-lane numerator.
  const VF q = (big ? VF{} + 2.0f : -em1) / (em1 + 2.0f);
  const VF z = big ? 1.0f - q : q;
  const VF out = __builtin_bit_cast(
      VF, __builtin_bit_cast(VI, z) ^ (bits & ~0x7fffffff));
  std::memcpy(py, &out, sizeof out);
}

// Runs chunks of VF's width from element i while a whole chunk fits and
// returns where it stopped. A chunk holding a lane outside the kernel's
// range goes to tanh_scalar whole.
template <typename VF, typename VI>
[[gnu::always_inline]] inline std::size_t tanh_chunks(const float* px,
                                                      float* py, std::size_t i,
                                                      std::size_t n) {
  constexpr std::size_t kLanes = sizeof(VF) / sizeof(float);
  for (; i + kLanes <= n; i += kLanes) {
    VI a;
    std::memcpy(&a, px + i, sizeof a);
    a &= 0x7fffffff;
    const VI rare = (a < kVecMin) | (a >= kVecMax);
    std::int32_t any = 0;
    for (std::size_t l = 0; l < kLanes; ++l) any |= rare[l];
    if (any != 0) {
      for (std::size_t j = i; j < i + kLanes; ++j) py[j] = tanh_scalar(px[j]);
      continue;
    }
    tanh_lanes<VF, VI>(px + i, py + i);
  }
  return i;
}

using TanhLoop = void (*)(const float*, float*, std::size_t);

// Chosen on the first tanh call, once per process.
TanhLoop tanh_loop() {
  static const TanhLoop loop =
      detail::cpu_has_avx2() ? detail::tanh_lanes8 : detail::tanh_lanes4;
  return loop;
}

}  // namespace

float tanh_scalar(float x) {
  const std::int32_t bits = std::bit_cast<std::int32_t>(x);
  const std::int32_t ax = bits & 0x7fffffff;
  const bool negative = bits < 0;
  if (ax >= 0x7f800000) return negative ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  if (ax == 0) return x;
  if (ax < 0x24000000) return x * (1.0f + x);  // |x| < 2^-55
  float z = 1.0f;  // |x| >= 22
  if (ax < 0x3f800000) {
    const float t = expm1f_port(-2.0f * std::fabs(x));
    z = -t / (t + 2.0f);
  } else if (ax < 0x41b00000) {
    z = 1.0f - 2.0f / (expm1f_port(2.0f * std::fabs(x)) + 2.0f);
  }
  return negative ? -z : z;
}

namespace detail {

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

void tanh_lanes4(const float* x, float* y, std::size_t n) {
  for (std::size_t i = tanh_chunks<V4, V4i>(x, y, 0, n); i < n; ++i)
    y[i] = tanh_scalar(x[i]);
}

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx2")]]
#endif
void tanh_lanes8(const float* x, float* y, std::size_t n) {
  std::size_t i = tanh_chunks<V8, V8i>(x, y, 0, n);
  i = tanh_chunks<V4, V4i>(x, y, i, n);  // at most one four-lane chunk
  for (; i < n; ++i) y[i] = tanh_scalar(x[i]);
}

}  // namespace detail

void tanh_forward_into(Tensor& y, const Tensor& x) {
  count_eltwise(x.numel());
  y.ensure_shape(x.shape());
  tanh_loop()(x.data().data(), y.data().data(), x.numel());
}

Tensor tanh_forward(const Tensor& x) {
  Tensor y;
  tanh_forward_into(y, x);
  return y;
}

void tanh_backward_into(Tensor& dx, const Tensor& y, const Tensor& dy) {
  STELLARIS_CHECK_MSG(y.same_shape(dy), "tanh_backward shape mismatch");
  count_eltwise(y.numel());
  dx.ensure_shape(y.shape());
  const float* py = y.data().data();
  const float* pd = dy.data().data();
  float* px = dx.data().data();
  const std::size_t n = y.numel();
  for (std::size_t i = 0; i < n; ++i) px[i] = pd[i] * (1.0f - py[i] * py[i]);
}

Tensor tanh_backward(const Tensor& y, const Tensor& dy) {
  Tensor dx;
  tanh_backward_into(dx, y, dy);
  return dx;
}

void relu_forward_into(Tensor& y, const Tensor& x) {
  count_eltwise(x.numel());
  y.ensure_shape(x.shape());
  const float* px = x.data().data();
  float* py = y.data().data();
  const std::size_t n = x.numel();
  for (std::size_t i = 0; i < n; ++i) py[i] = std::max(px[i], 0.0f);
}

Tensor relu_forward(const Tensor& x) {
  Tensor y;
  relu_forward_into(y, x);
  return y;
}

void relu_backward_into(Tensor& dx, const Tensor& x, const Tensor& dy) {
  STELLARIS_CHECK_MSG(x.same_shape(dy), "relu_backward shape mismatch");
  count_eltwise(x.numel());
  dx.ensure_shape(x.shape());
  const float* px = x.data().data();
  const float* pd = dy.data().data();
  float* po = dx.data().data();
  const std::size_t n = x.numel();
  for (std::size_t i = 0; i < n; ++i) po[i] = px[i] <= 0.0f ? 0.0f : pd[i];
}

Tensor relu_backward(const Tensor& x, const Tensor& dy) {
  Tensor dx;
  relu_backward_into(dx, x, dy);
  return dx;
}

void softmax_rows_into(Tensor& p, const Tensor& logits) {
  STELLARIS_CHECK_MSG(logits.rank() == 2, "softmax_rows needs 2-D");
  count_eltwise(logits.numel());
  p.ensure_shape(logits.shape());
  const std::size_t m = logits.dim(0), n = logits.dim(1);
  if (n == 0) return;
  const float* pl = logits.data().data();
  float* pp = p.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* l = pl + i * n;
    float* r = pp + i * n;
    float mx = l[0];
    for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, l[j]);
    float sum = 0.0f;
    for (std::size_t j = 0; j < n; ++j) {
      r[j] = std::exp(l[j] - mx);
      sum += r[j];
    }
    const float inv = 1.0f / sum;
    for (std::size_t j = 0; j < n; ++j) r[j] *= inv;
  }
}

Tensor softmax_rows(const Tensor& logits) {
  Tensor p;
  softmax_rows_into(p, logits);
  return p;
}

void log_softmax_rows_into(Tensor& lp, const Tensor& logits) {
  STELLARIS_CHECK_MSG(logits.rank() == 2, "log_softmax_rows needs 2-D");
  count_eltwise(logits.numel());
  lp.ensure_shape(logits.shape());
  const std::size_t m = logits.dim(0), n = logits.dim(1);
  if (n == 0) return;
  const float* pl = logits.data().data();
  float* pp = lp.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* l = pl + i * n;
    float* r = pp + i * n;
    float mx = l[0];
    for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, l[j]);
    float sum = 0.0f;
    for (std::size_t j = 0; j < n; ++j) sum += std::exp(l[j] - mx);
    const float lse = mx + std::log(sum);
    for (std::size_t j = 0; j < n; ++j) r[j] = l[j] - lse;
  }
}

Tensor log_softmax_rows(const Tensor& logits) {
  Tensor lp;
  log_softmax_rows_into(lp, logits);
  return lp;
}

// -- reference elementwise kernels (seed versions, test oracle) --------------

namespace reference {

Tensor sum_rows(const Tensor& x) {
  STELLARIS_CHECK_MSG(x.rank() == 2, "sum_rows needs a 2-D tensor");
  const std::size_t m = x.dim(0), n = x.dim(1);
  Tensor out({n});
  const float* px = x.data().data();
  float* po = out.data().data();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) po[j] += px[i * n + j];
  return out;
}

Tensor tanh_forward(const Tensor& x) {
  Tensor y = x;
  for (auto& v : y.vec()) v = tanh_scalar(v);
  return y;
}

Tensor relu_forward(const Tensor& x) {
  Tensor y = x;
  for (auto& v : y.vec()) v = std::max(v, 0.0f);
  return y;
}

Tensor softmax_rows(const Tensor& logits) {
  STELLARIS_CHECK_MSG(logits.rank() == 2, "softmax_rows needs 2-D");
  Tensor out = logits;
  const std::size_t m = out.dim(0), n = out.dim(1);
  float* p = out.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    float* r = p + i * n;
    float mx = r[0];
    for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, r[j]);
    float sum = 0.0f;
    for (std::size_t j = 0; j < n; ++j) {
      r[j] = std::exp(r[j] - mx);
      sum += r[j];
    }
    const float inv = 1.0f / sum;
    for (std::size_t j = 0; j < n; ++j) r[j] *= inv;
  }
  return out;
}

Tensor log_softmax_rows(const Tensor& logits) {
  STELLARIS_CHECK_MSG(logits.rank() == 2, "log_softmax_rows needs 2-D");
  Tensor out = logits;
  const std::size_t m = out.dim(0), n = out.dim(1);
  float* p = out.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    float* r = p + i * n;
    float mx = r[0];
    for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, r[j]);
    float sum = 0.0f;
    for (std::size_t j = 0; j < n; ++j) sum += std::exp(r[j] - mx);
    const float lse = mx + std::log(sum);
    for (std::size_t j = 0; j < n; ++j) r[j] -= lse;
  }
  return out;
}

}  // namespace reference
}  // namespace stellaris::ops
