#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "util/rng.hpp"

namespace stellaris::nn {
namespace {

// Scalar loss L = sum(forward(x)) and its analytic gradient via
// backward(ones); compared against central finite differences on both the
// input and every parameter.
double loss_of(Layer& layer, const Tensor& x) {
  Tensor y = layer.forward(x);
  return y.sum();
}

void check_gradients(Layer& layer, Tensor x, float tol = 2e-2f) {
  zero_gradients(layer);
  Tensor y = layer.forward(x);
  Tensor dy = Tensor::ones(y.shape());
  Tensor dx = layer.backward(dy);

  const float eps = 1e-2f;
  // Input gradient.
  for (std::size_t i = 0; i < std::min<std::size_t>(x.numel(), 20); ++i) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double fd = (loss_of(layer, xp) - loss_of(layer, xm)) / (2 * eps);
    EXPECT_NEAR(dx[i], fd, tol) << "input grad at " << i;
  }
  // Parameter gradients (sampled).
  auto params = layer.parameters();
  auto grads = layer.gradients();
  for (std::size_t p = 0; p < params.size(); ++p) {
    Tensor& w = *params[p];
    // Re-run forward/backward to refresh caches after the fd perturbations.
    zero_gradients(layer);
    (void)layer.forward(x);
    (void)layer.backward(dy);
    const Tensor g = *grads[p];
    for (std::size_t i = 0; i < std::min<std::size_t>(w.numel(), 12); ++i) {
      const float orig = w[i];
      w[i] = orig + eps;
      const double lp = loss_of(layer, x);
      w[i] = orig - eps;
      const double lm = loss_of(layer, x);
      w[i] = orig;
      EXPECT_NEAR(g[i], (lp - lm) / (2 * eps), tol)
          << "param " << p << " grad at " << i;
    }
  }
}

TEST(Linear, ForwardMatchesHandComputation) {
  Rng rng(1);
  Linear lin(2, 2, rng);
  lin.parameters()[0]->vec() = {1, 2, 3, 4};  // W row-major (in, out)
  lin.parameters()[1]->vec() = {10, 20};      // b
  Tensor x({1, 2}, {1, 1});
  Tensor y = lin.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1 + 3 + 10);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2 + 4 + 20);
}

TEST(Linear, GradientsMatchFiniteDifferences) {
  Rng rng(2);
  Linear lin(4, 3, rng);
  check_gradients(lin, Tensor::randn({5, 4}, rng));
}

TEST(Linear, BackwardBeforeForwardThrows) {
  Rng rng(3);
  Linear lin(2, 2, rng);
  EXPECT_THROW(lin.backward(Tensor({1, 2})), Error);
}

TEST(Linear, WrongInputWidthThrows) {
  Rng rng(4);
  Linear lin(3, 2, rng);
  EXPECT_THROW(lin.forward(Tensor({1, 4})), Error);
}

TEST(Tanh, GradientsMatchFiniteDifferences) {
  Rng rng(5);
  Tanh t;
  check_gradients(t, Tensor::randn({3, 4}, rng));
}

TEST(Relu, GradientsMatchFiniteDifferences) {
  Rng rng(6);
  Relu r;
  // Keep inputs away from the kink so finite differences are valid.
  Tensor x = Tensor::randn({3, 4}, rng);
  for (auto& v : x.vec())
    if (std::abs(v) < 0.05f) v = 0.2f;
  check_gradients(r, x);
}

TEST(Conv2d, GradientsMatchFiniteDifferences) {
  Rng rng(7);
  ops::Conv2dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 3;
  spec.in_h = 5;
  spec.in_w = 5;
  spec.kernel = 3;
  spec.stride = 2;
  Conv2d conv(spec, rng);
  check_gradients(conv, Tensor::randn({2, 2 * 5 * 5}, rng));
}

TEST(Conv2d, OutputShape) {
  Rng rng(8);
  ops::Conv2dSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 8;
  spec.in_h = 20;
  spec.in_w = 20;
  spec.kernel = 5;
  spec.stride = 2;
  Conv2d conv(spec, rng);
  Tensor y = conv.forward(Tensor({4, 3 * 20 * 20}));
  EXPECT_EQ(y.shape(), (Shape{4, 8 * 8 * 8}));
  EXPECT_EQ(conv.out_features(), 8u * 8 * 8);
}

TEST(Sequential, ComposesAndBackpropagates) {
  Rng rng(9);
  Sequential seq;
  seq.add(std::make_unique<Linear>(4, 8, rng));
  seq.add(std::make_unique<Tanh>());
  seq.add(std::make_unique<Linear>(8, 2, rng));
  check_gradients(seq, Tensor::randn({3, 4}, rng));
}

TEST(Sequential, ParameterAggregation) {
  Rng rng(10);
  Sequential seq;
  seq.add(std::make_unique<Linear>(4, 8, rng));
  seq.add(std::make_unique<Relu>());
  seq.add(std::make_unique<Linear>(8, 2, rng));
  EXPECT_EQ(seq.parameters().size(), 4u);  // 2 × (W, b)
  EXPECT_EQ(seq.gradients().size(), 4u);
  EXPECT_EQ(parameter_count(seq), 4u * 8 + 8 + 8 * 2 + 2);
}

TEST(Sequential, ZeroGradientsZeroesEverything) {
  Rng rng(11);
  Sequential seq;
  seq.add(std::make_unique<Linear>(3, 3, rng));
  Tensor x = Tensor::randn({2, 3}, rng);
  (void)seq.forward(x);
  (void)seq.backward(Tensor::ones({2, 3}));
  bool any_nonzero = false;
  for (Tensor* g : seq.gradients())
    if (g->norm() > 0) any_nonzero = true;
  EXPECT_TRUE(any_nonzero);
  zero_gradients(seq);
  for (Tensor* g : seq.gradients()) EXPECT_EQ(g->norm(), 0.0f);
}

// Acceptance criterion for the kernel-buffer-reuse work: once a layer stack
// has seen a batch shape, further forward/backward steps at that shape must
// not allocate — every intermediate lives in a persistent member buffer or a
// recycled ScratchPool lease.
TEST(Sequential, SteadyStateForwardBackwardDoesNotAllocate) {
  Rng rng(13);
  Sequential seq;
  seq.add(std::make_unique<Linear>(16, 32, rng));
  seq.add(std::make_unique<Tanh>());
  seq.add(std::make_unique<Linear>(32, 8, rng));
  Tensor x = Tensor::randn({4, 16}, rng);
  Tensor dy = Tensor::ones({4, 8});
  // Warm-up pass sizes every persistent buffer and scratch lease.
  (void)seq.forward(x);
  (void)seq.backward(dy);
  zero_gradients(seq);
  const std::uint64_t allocs = tensor_buffer_allocs();
  for (int step = 0; step < 5; ++step) {
    (void)seq.forward(x);
    (void)seq.backward(dy);
    zero_gradients(seq);
  }
  EXPECT_EQ(tensor_buffer_allocs(), allocs);
}

TEST(Conv2d, SteadyStateForwardBackwardDoesNotAllocate) {
  Rng rng(14);
  ops::Conv2dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 4;
  spec.in_h = 8;
  spec.in_w = 8;
  spec.kernel = 3;
  spec.stride = 2;
  Conv2d conv(spec, rng);
  Tensor x = Tensor::randn({3, 2 * 8 * 8}, rng);
  (void)conv.forward(x);
  Tensor dy = Tensor::ones({3, conv.out_features()});
  (void)conv.backward(dy);
  zero_gradients(conv);
  const std::uint64_t allocs = tensor_buffer_allocs();
  for (int step = 0; step < 5; ++step) {
    (void)conv.forward(x);
    (void)conv.backward(dy);
    zero_gradients(conv);
  }
  EXPECT_EQ(tensor_buffer_allocs(), allocs);
}

// backward_params() must leave every parameter gradient byte-identical to
// backward(): it drops only the input gradient. Two copies of a layer are
// built from the same seed and fed the same batches; two steps check that
// the accumulation into dW/db matches as well.
void expect_same_gradients(Layer& full, Layer& params_only) {
  const auto a = full.gradients();
  const auto b = params_only.gradients();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i]->shape(), b[i]->shape()) << "gradient " << i;
    EXPECT_EQ(std::memcmp(a[i]->data().data(), b[i]->data().data(),
                          a[i]->numel() * sizeof(float)),
              0)
        << "gradient " << i;
  }
}

template <typename Make>
void check_backward_params(const Make& make, std::size_t batch,
                           std::size_t in) {
  auto full = make();
  auto params_only = make();
  Rng rng(99);
  for (int step = 0; step < 2; ++step) {
    const Tensor x = Tensor::randn({batch, in}, rng);
    const Tensor& y = full->forward(x);
    const Tensor dy = Tensor::randn(y.shape(), rng);
    (void)full->backward(dy);
    (void)params_only->forward(x);
    params_only->backward_params(dy);
  }
  expect_same_gradients(*full, *params_only);
}

ops::Conv2dSpec conv1_spec() {
  ops::Conv2dSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 8;
  spec.in_h = 20;
  spec.in_w = 20;
  spec.kernel = 5;
  spec.stride = 2;
  return spec;
}

TEST(Linear, BackwardParamsMatchesBackward) {
  check_backward_params(
      [] {
        Rng rng(40);
        return std::make_unique<Linear>(24, 8, rng);
      },
      6, 24);
}

TEST(Conv2d, BackwardParamsMatchesBackward) {
  check_backward_params(
      [] {
        Rng rng(41);
        return std::make_unique<Conv2d>(conv1_spec(), rng);
      },
      5, 3 * 20 * 20);
}

TEST(Sequential, BackwardParamsMatchesBackward) {
  check_backward_params(
      [] {
        Rng rng(42);
        auto seq = std::make_unique<Sequential>();
        auto conv = std::make_unique<Conv2d>(conv1_spec(), rng);
        const std::size_t flat = conv->out_features();
        seq->add(std::move(conv));
        seq->add(std::make_unique<Relu>());
        seq->add(std::make_unique<Linear>(flat, 16, rng));
        seq->add(std::make_unique<Tanh>());
        seq->add(std::make_unique<Linear>(16, 4, rng));
        return seq;
      },
      5, 3 * 20 * 20);
}

TEST(Sequential, BackwardParamsOnEmptyPipelineIsANoOp) {
  Sequential seq;
  (void)seq.forward(Tensor::ones({2, 3}));
  seq.backward_params(Tensor::ones({2, 3}));
  EXPECT_TRUE(seq.gradients().empty());
}

TEST(Sequential, GradientsAccumulateAcrossBackwardCalls) {
  Rng rng(12);
  Linear lin(2, 2, rng);
  Tensor x = Tensor::randn({1, 2}, rng);
  (void)lin.forward(x);
  (void)lin.backward(Tensor::ones({1, 2}));
  const float g1 = (*lin.gradients()[0])[0];
  (void)lin.forward(x);
  (void)lin.backward(Tensor::ones({1, 2}));
  EXPECT_NEAR((*lin.gradients()[0])[0], 2 * g1, 1e-6f);
}

}  // namespace
}  // namespace stellaris::nn
