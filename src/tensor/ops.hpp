// Tensor kernel library: blocked matrix products, activations, the softmax
// family, and the im2col lowering used by the convolution layer.
//
// Layout (one concern per TU):
//   gemm.cpp        — cache-blocked, register-tiled GEMM variants
//   elementwise.cpp — activations, softmax family, bias/row reductions
//   ops.cpp         — convolution lowering (im2col / col2im)
//   scratch.*       — reusable scratch-tensor pool
//
// Every kernel comes in two forms: a value-returning convenience wrapper
// and an `*_into` out-parameter variant that reshapes its destination in
// place and fully overwrites it — after warm-up the `_into` form never
// allocates, which is what keeps the learner step allocation-free.
//
// Determinism contract: the blocked GEMMs tile the i/j (output)
// dimensions; each output element accumulates its k terms in ascending
// order starting from 0, exactly like the naive reference kernels below.
// Where k is cut into chunks, each chunk resumes from the stored partial
// sum, which leaves the chain unchanged. Results are therefore
// bit-identical to ops::reference. Every kernel runs on its calling thread.
//
// The seed kernels are retained verbatim under ops::reference (minus a
// zero-skip branch that broke IEEE NaN/Inf propagation): they are the
// bit-exactness oracle for the test suite and the "before" baseline for
// the kernel-perf harness (bench/micro_substrates --json=...).
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"

namespace stellaris::ops {

// -- matrix products ---------------------------------------------------------
// The `_into` variants reject an output that aliases an input.

/// C = A (m×k) * B (k×n).
Tensor matmul(const Tensor& a, const Tensor& b);
void matmul_into(Tensor& c, const Tensor& a, const Tensor& b);

/// C = Aᵀ (k×m becomes m×k) * B — used in backward passes without
/// materializing transposes.
Tensor matmul_tn(const Tensor& a, const Tensor& b);
void matmul_tn_into(Tensor& c, const Tensor& a, const Tensor& b);

/// C = A * Bᵀ.
Tensor matmul_nt(const Tensor& a, const Tensor& b);
void matmul_nt_into(Tensor& c, const Tensor& a, const Tensor& b);

// -- bias / reductions -------------------------------------------------------
/// y = x (m×n) with row-broadcast bias (n) added, in place.
void add_bias_rows(Tensor& x, const Tensor& bias);

/// Column-sum of a 2-D tensor -> 1-D (n); the bias gradient.
Tensor sum_rows(const Tensor& x);
void sum_rows_into(Tensor& out, const Tensor& x);

// -- activations (out-of-place forward, gradient helpers) -------------------
// For the `_into` forms the output may alias the primary input.
/// glibc 2.36's tanhf, ported: the same bits as std::tanh on that libm for
/// every float, so results do not depend on the host's libm.
float tanh_scalar(float x);
/// Elementwise tanh_scalar, eight lanes at a time on CPUs with AVX2 and
/// four elsewhere (the kernel is chosen once per process); the bits are
/// the same either way.
Tensor tanh_forward(const Tensor& x);
void tanh_forward_into(Tensor& y, const Tensor& x);
/// dx = dy * (1 - y²) where y = tanh(x) from the forward pass.
Tensor tanh_backward(const Tensor& y, const Tensor& dy);
void tanh_backward_into(Tensor& dx, const Tensor& y, const Tensor& dy);

Tensor relu_forward(const Tensor& x);
void relu_forward_into(Tensor& y, const Tensor& x);
/// dx = dy ⊙ 1[x > 0].
Tensor relu_backward(const Tensor& x, const Tensor& dy);
void relu_backward_into(Tensor& dx, const Tensor& x, const Tensor& dy);

// -- softmax family (row-wise over 2-D tensors) ------------------------------
/// Row-wise softmax with max-subtraction for stability.
Tensor softmax_rows(const Tensor& logits);
void softmax_rows_into(Tensor& p, const Tensor& logits);
/// Row-wise log-softmax.
Tensor log_softmax_rows(const Tensor& logits);
void log_softmax_rows_into(Tensor& lp, const Tensor& logits);

// -- convolution lowering -----------------------------------------------------
/// Parameters of a 2-D convolution (square kernel/stride, zero padding).
struct Conv2dSpec {
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel = 0;
  std::size_t stride = 1;
  std::size_t padding = 0;

  std::size_t out_h() const { return (in_h + 2 * padding - kernel) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * padding - kernel) / stride + 1; }
};

/// Lower an input batch (N, C·H·W flattened rows) into the im2col matrix
/// with shape (N·out_h·out_w, C·k·k): each row is one receptive field.
Tensor im2col(const Tensor& input, const Conv2dSpec& spec);
void im2col_into(Tensor& cols, const Tensor& input, const Conv2dSpec& spec);

/// Inverse scatter of im2col — accumulates column gradients back into the
/// input-gradient layout (N, C·H·W).
Tensor col2im(const Tensor& cols, const Conv2dSpec& spec, std::size_t batch);
void col2im_into(Tensor& out, const Tensor& cols, const Conv2dSpec& spec,
                 std::size_t batch);

// The two tanh_forward_into loops, exposed so tests can check each one on
// any host. y may equal x. tanh_lanes8 may only run where cpu_has_avx2().
namespace detail {
bool cpu_has_avx2();
void tanh_lanes4(const float* x, float* y, std::size_t n);
void tanh_lanes8(const float* x, float* y, std::size_t n);
}  // namespace detail

// -- reference kernels --------------------------------------------------------
// The seed's naive loops, kept as the semantic oracle for the bit-exactness
// suite and as the "before" side of the kernel-perf harness. Not used by
// any production path. tanh_forward maps tanh_scalar over the elements
// instead of libm's tanhf, whose bits it reproduces.
namespace reference {

Tensor matmul(const Tensor& a, const Tensor& b);
Tensor matmul_tn(const Tensor& a, const Tensor& b);
Tensor matmul_nt(const Tensor& a, const Tensor& b);
Tensor sum_rows(const Tensor& x);
Tensor tanh_forward(const Tensor& x);
Tensor relu_forward(const Tensor& x);
Tensor softmax_rows(const Tensor& logits);
Tensor log_softmax_rows(const Tensor& logits);

}  // namespace reference

}  // namespace stellaris::ops
