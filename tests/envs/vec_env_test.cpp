#include "envs/vec_env.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace stellaris::envs {
namespace {

TEST(VecEnv, ResetStacksObservations) {
  VecEnv vec("Hopper", 4, 1);
  Tensor obs = vec.reset_all();
  EXPECT_EQ(obs.shape(), (Shape{4, vec.spec().obs.flat_dim}));
  EXPECT_TRUE(obs.all_finite());
}

TEST(VecEnv, StepBatchShapes) {
  VecEnv vec("Hopper", 3, 2);
  vec.reset_all();
  Tensor actions({3, vec.spec().act_dim});
  auto batch = vec.step(actions);
  EXPECT_EQ(batch.obs.dim(0), 3u);
  EXPECT_EQ(batch.rewards.size(), 3u);
  EXPECT_EQ(batch.dones.size(), 3u);
  EXPECT_EQ(vec.total_steps(), 3u);
}

TEST(VecEnv, DiscreteBatchStep) {
  VecEnv vec("Qbert", 2, 3);
  vec.reset_all();
  auto batch = vec.step_discrete({2, 3});
  EXPECT_EQ(batch.obs.dim(0), 2u);
}

TEST(VecEnv, AutoResetOnDone) {
  VecEnv vec("Hopper", 2, 4);
  vec.reset_all();
  Tensor push = Tensor::full({2, vec.spec().act_dim}, 1.0f);
  std::size_t episodes = 0;
  for (int i = 0; i < 600 && episodes == 0; ++i) {
    auto batch = vec.step(push);
    episodes += batch.episode_returns.size();
    // Even after done, the returned obs must be a valid fresh observation.
    EXPECT_TRUE(batch.obs.all_finite());
  }
  EXPECT_GE(episodes, 1u);
}

TEST(VecEnv, EpisodeReturnsAccumulateRewards) {
  VecEnv vec("Hopper", 1, 5);
  vec.reset_all();
  Tensor zero({1, vec.spec().act_dim});
  double manual = 0.0;
  for (;;) {
    auto batch = vec.step(zero);
    manual += batch.rewards[0];
    if (!batch.episode_returns.empty()) {
      EXPECT_NEAR(batch.episode_returns[0], manual, 1e-9);
      break;
    }
  }
}

TEST(VecEnv, StepDrawsOneResetSeedPerEnv) {
  // The caller's stream advances by exactly n per batch step, whether or
  // not any env finishes: the draw count never depends on episode ends.
  VecEnv vec("Walker2d", 3, 1);
  Rng rng(21), expected(21);
  Tensor obs;
  vec.reset_all_into(rng, obs);
  VecEnv::StepBatch out;
  const Tensor actions({3, vec.spec().act_dim});
  for (int step = 0; step < 30; ++step) vec.step_into(actions, rng, out);
  for (int i = 0; i < 3 + 30 * 3; ++i) expected.next();
  EXPECT_EQ(rng.next(), expected.next());
}

TEST(VecEnv, StepIntoIsAllocationFreeWhenWarm) {
  VecEnv vec("Hopper", 4, 1);
  Rng rng(2);
  Tensor obs;
  vec.reset_all_into(rng, obs);
  VecEnv::StepBatch out;
  Tensor actions = Tensor::full({4, vec.spec().act_dim}, 0.1f);
  vec.step_into(actions, rng, out);  // warm: out buffers take shape
  const std::uint64_t before = tensor_buffer_allocs();
  for (int step = 0; step < 50; ++step) vec.step_into(actions, rng, out);
  EXPECT_EQ(tensor_buffer_allocs(), before)
      << "steady-state step_into must not allocate tensor buffers";
}

TEST(VecEnv, SingleEnvForwardsMatchScalarEnv) {
  // reset_env_into / step_env_into are pass-throughs: same seed, same
  // actions => same per-env stream as a standalone Env.
  VecEnv vec("Hopper", 2, 1);
  auto solo = make_env("Hopper");
  const std::size_t obs_dim = vec.spec().obs.flat_dim;
  std::vector<float> obs_vec(obs_dim), obs_solo(obs_dim);
  vec.reset_env_into(1, 77, obs_vec);
  solo->reset_into(77, obs_solo);
  ASSERT_EQ(obs_vec, obs_solo);
  std::vector<float> action(vec.spec().act_dim, 0.3f);
  for (int step = 0; step < 25; ++step) {
    const StepOut a = vec.step_env_into(1, action, obs_vec);
    const StepOut b = solo->step_into(action, obs_solo);
    ASSERT_EQ(obs_vec, obs_solo);
    ASSERT_EQ(a.reward, b.reward);
    ASSERT_EQ(a.done, b.done);
    if (a.done) break;
  }
}

TEST(VecEnv, WrongActionShapeThrows) {
  VecEnv vec("Hopper", 2, 1);
  vec.reset_all();
  EXPECT_THROW(vec.step(Tensor({3, vec.spec().act_dim})), Error);
  EXPECT_THROW(vec.step_discrete({0}), Error);
}

TEST(VecEnv, ZeroEnvsThrows) { EXPECT_THROW(VecEnv("Hopper", 0, 1), Error); }

}  // namespace
}  // namespace stellaris::envs
