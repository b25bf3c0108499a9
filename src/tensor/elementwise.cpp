// Elementwise / activation / softmax-family kernels.
//
// Each kernel is a contiguous single-pass loop written for the
// autovectorizer, in a value-returning and a buffer-reusing `_into` form.
// Arithmetic per element is kept identical to the seed kernels (now under
// ops::reference) so the rewrite is bit-transparent to the learner.
//
// tanh is the exception: libm's tanhf is a scalar call per element, so
// tanh_forward_into runs a four-lane port of the same algorithm (glibc
// 2.36's fdlibm-derived tanhf/expm1f) that returns the same bits for every
// input; tanh_scalar is the scalar port and the kernel's fallback.
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

// |x| bounds of the four-lane kernel, as bit patterns of |x|. Below 2^-26,
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

V4 as_float(V4i v) {
  V4 f;
  std::memcpy(&f, &v, sizeof f);
  return f;
}

V4i as_int(V4 v) {
  V4i i;
  std::memcpy(&i, &v, sizeof i);
  return i;
}

// tanh_scalar on four lanes with kVecMin <= |x| < kVecMax. Each lane
// evaluates every branch glibc could take for it and keeps the one its k
// selects; on these lanes k is 0, -1, -2 or -3 for |x| < 1 and 3..56
// above. 2^-k comes from exponent bits, so 1 - 2^-k (exact for k < 24)
// needs no per-lane variable shift.
V4 tanh4(V4 x) {
  const V4i bits = as_int(x);
  const V4i abits = bits & 0x7fffffff;
  const V4 ax = as_float(abits);
  const V4i big = abits >= 0x3f800000;
  const V4 u = big ? ax + ax : -(ax + ax);
  const V4i hu = abits + (1 << 23);  // bits of |u| = 2|x|
  const V4 half = big ? V4{} + 0.5f : V4{} - 0.5f;
  V4i k = __builtin_convertvector(kInvLn2 * u + half, V4i);
  k = hu < kThreeHalvesLn2 ? V4i{} - 1 : k;
  k = hu <= kHalfLn2 ? V4i{} : k;
  const V4 t = __builtin_convertvector(k, V4);
  const V4 hi = u - t * kLn2Hi;
  const V4 lo = t * kLn2Lo;
  const V4 r = hi - lo;  // == u where k == 0
  const V4 c = (hi - r) - lo;
  const V4 hfx = 0.5f * r;
  const V4 hxs = r * hfx;
  const V4 r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const V4 t3 = 3.0f - r1 * hfx;
  const V4 e = hxs * ((r1 - t3) / (6.0f - r * t3));
  const V4 e2 = (r * (e - c) - c) - hxs;
  const V4i kexp = k << 23;
  const V4 two_mk = as_float((0x7f << 23) - kexp);
  const V4 k_zero = r - (r * e - hxs);
  const V4 k_minus_one = 0.5f * (r - e2) - 0.5f;
  const V4 k_negative = as_float(as_int(1.0f - (e2 - r)) + kexp) - 1.0f;
  const V4 k_below_23 = as_float(as_int((1.0f - two_mk) - (e2 - r)) + kexp);
  const V4 k_from_23 = as_float(as_int((r - (e2 + two_mk)) + 1.0f) + kexp);
  V4 em1 = k < 23 ? k_below_23 : k_from_23;
  em1 = k < 0 ? k_negative : em1;
  em1 = k == -1 ? k_minus_one : em1;
  em1 = k == 0 ? k_zero : em1;
  // 2/(t + 2) and -t/(t + 2) are one division with a per-lane numerator.
  const V4 q = (big ? V4{} + 2.0f : -em1) / (em1 + 2.0f);
  const V4 z = big ? 1.0f - q : q;
  return as_float(as_int(z) ^ (bits & ~0x7fffffff));
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

void tanh_forward_into(Tensor& y, const Tensor& x) {
  count_eltwise(x.numel());
  y.ensure_shape(x.shape());
  const float* px = x.data().data();
  float* py = y.data().data();
  const std::size_t n = x.numel();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    V4 v;
    std::memcpy(&v, px + i, sizeof v);
    const V4i a = as_int(v) & 0x7fffffff;
    const V4i rare = (a < kVecMin) | (a >= kVecMax);
    if ((rare[0] | rare[1] | rare[2] | rare[3]) != 0) {
      for (std::size_t j = i; j < i + 4; ++j) py[j] = tanh_scalar(px[j]);
      continue;
    }
    const V4 out = tanh4(v);
    std::memcpy(py + i, &out, sizeof out);
  }
  for (; i < n; ++i) py[i] = tanh_scalar(px[i]);
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
