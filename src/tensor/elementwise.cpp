// Elementwise / activation / softmax-family kernels.
//
// Each kernel is a contiguous single-pass loop written for the
// autovectorizer, in a value-returning and a buffer-reusing `_into` form.
// Arithmetic per element is kept identical to the seed kernels (now under
// ops::reference) so the rewrite is bit-transparent to the learner.
#include <algorithm>
#include <cmath>

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

void tanh_forward_into(Tensor& y, const Tensor& x) {
  count_eltwise(x.numel());
  y.ensure_shape(x.shape());
  const float* px = x.data().data();
  float* py = y.data().data();
  const std::size_t n = x.numel();
  for (std::size_t i = 0; i < n; ++i) py[i] = std::tanh(px[i]);
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
  for (auto& v : y.vec()) v = std::tanh(v);
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
