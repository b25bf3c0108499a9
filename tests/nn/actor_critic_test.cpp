#include "nn/actor_critic.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "nn/distributions.hpp"
#include "util/rng.hpp"

namespace stellaris::nn {
namespace {

ActorCritic make_mujoco_model(std::uint64_t seed = 1) {
  return ActorCritic(ObsSpec::vector(8), ActionKind::kContinuous, 3,
                     NetworkSpec::mujoco(16), seed);
}

ActorCritic make_atari_model(std::uint64_t seed = 1) {
  return ActorCritic(ObsSpec::planes(3, 20, 20), ActionKind::kDiscrete, 4,
                     NetworkSpec::atari(), seed);
}

TEST(ActorCritic, PolicyAndValueShapes) {
  auto m = make_mujoco_model();
  Rng rng(2);
  Tensor obs = Tensor::randn({5, 8}, rng);
  EXPECT_EQ(m.policy_forward(obs).shape(), (Shape{5, 3}));
  EXPECT_EQ(m.value_forward(obs).shape(), (Shape{5}));
}

TEST(ActorCritic, AtariShapes) {
  auto m = make_atari_model();
  Rng rng(3);
  Tensor obs = Tensor::rand_uniform({2, 3 * 20 * 20}, rng, 0.0f, 1.0f);
  EXPECT_EQ(m.policy_forward(obs).shape(), (Shape{2, 4}));
  EXPECT_EQ(m.value_forward(obs).shape(), (Shape{2}));
}

TEST(ActorCritic, ContinuousHasLogStdDiscreteDoesNot) {
  auto c = make_mujoco_model();
  auto d = make_atari_model();
  EXPECT_NE(c.log_std(), nullptr);
  EXPECT_EQ(c.log_std()->numel(), 3u);
  EXPECT_EQ(d.log_std(), nullptr);
}

TEST(ActorCritic, FlatParamRoundTrip) {
  auto m = make_mujoco_model(7);
  const auto flat = m.flat_params();
  EXPECT_EQ(flat.size(), m.flat_size());
  auto m2 = make_mujoco_model(8);  // different init
  m2.set_flat_params(flat);
  EXPECT_EQ(m2.flat_params(), flat);
}

TEST(ActorCritic, SetFlatWrongSizeThrows) {
  auto m = make_mujoco_model();
  std::vector<float> bad(m.flat_size() + 1, 0.0f);
  EXPECT_THROW(m.set_flat_params(bad), Error);
}

TEST(ActorCritic, CloneIsDeepAndEqual) {
  auto m = make_mujoco_model(9);
  auto c = m.clone();
  EXPECT_EQ(c->flat_params(), m.flat_params());
  // Mutating the clone does not touch the original.
  auto p = c->flat_params();
  p[0] += 1.0f;
  c->set_flat_params(p);
  EXPECT_NE(c->flat_params(), m.flat_params());
}

TEST(ActorCritic, SameSeedSameInit) {
  auto a = make_mujoco_model(5);
  auto b = make_mujoco_model(5);
  EXPECT_EQ(a.flat_params(), b.flat_params());
}

TEST(ActorCritic, DifferentSeedDifferentInit) {
  auto a = make_mujoco_model(5);
  auto b = make_mujoco_model(6);
  EXPECT_NE(a.flat_params(), b.flat_params());
}

TEST(ActorCritic, LogStdSpanPointsAtLogStd) {
  auto m = make_mujoco_model(10);
  const auto [off, len] = m.log_std_span();
  EXPECT_EQ(len, 3u);
  auto flat = m.flat_params();
  for (std::size_t i = 0; i < len; ++i)
    EXPECT_FLOAT_EQ(flat[off + i], (*m.log_std())[i]);
  // Editing through the span lands in the model's log_std.
  flat[off] = -1.25f;
  m.set_flat_params(flat);
  EXPECT_FLOAT_EQ((*m.log_std())[0], -1.25f);
}

TEST(ActorCritic, LogStdSpanEmptyForDiscrete) {
  auto m = make_atari_model();
  const auto [off, len] = m.log_std_span();
  EXPECT_EQ(len, 0u);
  (void)off;
}

TEST(ActorCritic, ZeroGradClearsAccumulators) {
  auto m = make_mujoco_model(11);
  Rng rng(4);
  Tensor obs = Tensor::randn({3, 8}, rng);
  Tensor out = m.policy_forward(obs);
  m.policy_backward(Tensor::ones(out.shape()));
  Tensor v = m.value_forward(obs);
  m.value_backward(Tensor::ones({3}));
  double norm = 0.0;
  for (float g : m.flat_grads()) norm += std::abs(g);
  EXPECT_GT(norm, 0.0);
  m.zero_grad();
  for (float g : m.flat_grads()) EXPECT_EQ(g, 0.0f);
}

TEST(ActorCritic, GradSizeMatchesParamSize) {
  auto m = make_mujoco_model(12);
  EXPECT_EQ(m.flat_grads().size(), m.flat_size());
}

TEST(ActorCritic, PolicyAndValueNetsAreIndependent) {
  auto m = make_mujoco_model(13);
  Rng rng(5);
  Tensor obs = Tensor::randn({2, 8}, rng);
  Tensor v_before = m.value_forward(obs);
  // Backprop only through the policy; value outputs must be unchanged.
  Tensor out = m.policy_forward(obs);
  m.policy_backward(Tensor::ones(out.shape()));
  Tensor v_after = m.value_forward(obs);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_FLOAT_EQ(v_before[i], v_after[i]);
}

// NetworkSpec::atari()'s torso over 3×20×20 frames, layer for layer as
// ActorCritic builds it.
Sequential atari_torso(std::size_t out_dim, Rng& rng) {
  Sequential seq;
  seq.add(std::make_unique<Conv2d>(ops::Conv2dSpec{3, 8, 20, 20, 5, 2, 0}, rng));
  seq.add(std::make_unique<Relu>());
  seq.add(std::make_unique<Conv2d>(ops::Conv2dSpec{8, 16, 8, 8, 3, 2, 0}, rng));
  seq.add(std::make_unique<Relu>());
  seq.add(std::make_unique<Linear>(16 * 3 * 3, 128, rng));
  seq.add(std::make_unique<Relu>());
  seq.add(std::make_unique<Linear>(128, out_dim, rng));
  return seq;
}

// One PPO-shaped gradient step on an atari model (policy gradient through
// categorical_log_prob_backward, value gradient) must give byte-identical
// flat_grads() to the full backward() through the same torso, weights and
// batch: policy_backward/value_backward skip only the observation gradient.
TEST(ActorCritic, AtariStepGradientsMatchFullBackward) {
  auto m = make_atari_model(21);
  Rng init(0);
  Sequential policy = atari_torso(4, init);
  Sequential value = atari_torso(1, init);
  std::vector<Tensor*> ref_params = policy.parameters();
  for (Tensor* p : value.parameters()) ref_params.push_back(p);
  const std::vector<Tensor*> params = m.parameters();
  ASSERT_EQ(params.size(), ref_params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    ASSERT_EQ(params[i]->shape(), ref_params[i]->shape()) << "param " << i;
    *ref_params[i] = *params[i];
  }

  const std::size_t n = 12;
  Rng rng(22);
  const Tensor obs = Tensor::rand_uniform({n, 3 * 20 * 20}, rng, 0.0f, 1.0f);
  std::vector<std::size_t> actions(n);
  for (std::size_t t = 0; t < n; ++t) actions[t] = t % 4;
  const Tensor coeff = Tensor::randn({n}, rng);
  const Tensor dvalues = Tensor::randn({n}, rng);

  m.zero_grad();
  const Tensor dlogits = nn::categorical_log_prob_backward(
      m.policy_forward(obs), actions, coeff);
  m.policy_backward(dlogits);
  (void)m.value_forward(obs);
  m.value_backward(dvalues);

  (void)policy.forward(obs);
  (void)policy.backward(dlogits);
  (void)value.forward(obs);
  Tensor dvalues_2d = dvalues;
  dvalues_2d.reshape({n, 1});
  (void)value.backward(dvalues_2d);

  std::vector<float> want;
  for (Tensor* g : policy.gradients())
    want.insert(want.end(), g->vec().begin(), g->vec().end());
  for (Tensor* g : value.gradients())
    want.insert(want.end(), g->vec().begin(), g->vec().end());
  const std::vector<float> got = m.flat_grads();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0);
}

TEST(ActorCritic, AtariStepDoesNotAllocateAfterWarmUp) {
  auto m = make_atari_model(23);
  Rng rng(24);
  const Tensor obs = Tensor::rand_uniform({6, 3 * 20 * 20}, rng, 0.0f, 1.0f);
  const Tensor dout = Tensor::randn({6, 4}, rng);
  const Tensor dvalues = Tensor::randn({6}, rng);
  auto step = [&] {
    (void)m.policy_forward(obs);
    m.policy_backward(dout);
    (void)m.value_forward(obs);
    m.value_backward(dvalues);
    m.zero_grad();
  };
  step();
  const std::uint64_t allocs = tensor_buffer_allocs();
  for (int i = 0; i < 3; ++i) step();
  EXPECT_EQ(tensor_buffer_allocs(), allocs);
}

TEST(ActorCritic, RejectsBadConstruction) {
  EXPECT_THROW(ActorCritic(ObsSpec::vector(0), ActionKind::kContinuous, 2,
                           NetworkSpec::mujoco(8), 1),
               Error);
  EXPECT_THROW(ActorCritic(ObsSpec::vector(4), ActionKind::kContinuous, 0,
                           NetworkSpec::mujoco(8), 1),
               Error);
  // CNN spec demands image observations.
  EXPECT_THROW(ActorCritic(ObsSpec::vector(4), ActionKind::kDiscrete, 2,
                           NetworkSpec::atari(), 1),
               Error);
}

}  // namespace
}  // namespace stellaris::nn
