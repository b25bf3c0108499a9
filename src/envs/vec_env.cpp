#include "envs/vec_env.hpp"

#include "util/error.hpp"

namespace stellaris::envs {

VecEnv::VecEnv(const std::string& name, std::size_t n, std::uint64_t seed)
    : rng_(seed) {
  STELLARIS_CHECK_MSG(n > 0, "VecEnv needs at least one environment");
  envs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) envs_.push_back(make_env(name));
  spec_ = envs_.front()->spec();
  running_returns_.assign(n, 0.0);
}

Tensor VecEnv::reset_all() { return reset_all(rng_); }

Tensor VecEnv::reset_all(Rng& rng) {
  Tensor obs;
  reset_all_into(rng, obs);
  return obs;
}

void VecEnv::reset_all_into(Rng& rng, Tensor& obs) {
  obs.ensure_shape({envs_.size(), spec_.obs.flat_dim});
  for (std::size_t i = 0; i < envs_.size(); ++i) {
    envs_[i]->reset_into(rng.next(), obs.row(i));
    running_returns_[i] = 0.0;
  }
}

template <typename StepFn>
void VecEnv::step_impl(const StepFn& fn, Rng& rng, StepBatch& out) {
  const std::size_t n = envs_.size();
  out.obs.ensure_shape({n, spec_.obs.flat_dim});
  out.rewards.resize(n);
  out.dones.assign(n, false);
  out.episode_returns.clear();

  for (std::size_t i = 0; i < n; ++i) {
    // One auto-reset seed per env per step, drawn in index order whether or
    // not the env finishes, so the stream advances by exactly n per step.
    const std::uint64_t reset_seed = rng.next();
    const std::span<float> row = out.obs.row(i);
    const StepOut s = fn(i, row);
    out.rewards[i] = s.reward;
    out.dones[i] = s.done;
    running_returns_[i] += s.reward;
    if (s.done) {
      envs_[i]->reset_into(reset_seed, row);
      out.episode_returns.push_back(running_returns_[i]);
      running_returns_[i] = 0.0;
    }
  }
  total_steps_ += n;
}

VecEnv::StepBatch VecEnv::step(const Tensor& actions) {
  return step(actions, rng_);
}

VecEnv::StepBatch VecEnv::step(const Tensor& actions, Rng& rng) {
  StepBatch out;
  step_into(actions, rng, out);
  return out;
}

void VecEnv::step_into(const Tensor& actions, Rng& rng, StepBatch& out) {
  STELLARIS_CHECK_MSG(actions.rank() == 2 && actions.dim(0) == envs_.size() &&
                          actions.dim(1) == spec_.act_dim,
                      "VecEnv::step action shape "
                          << shape_str(actions.shape()));
  step_impl(
      [&](std::size_t i, std::span<float> obs) {
        return envs_[i]->step_into(actions.row(i), obs);
      },
      rng, out);
}

VecEnv::StepBatch VecEnv::step_discrete(
    const std::vector<std::size_t>& actions) {
  return step_discrete(actions, rng_);
}

VecEnv::StepBatch VecEnv::step_discrete(
    const std::vector<std::size_t>& actions, Rng& rng) {
  StepBatch out;
  step_discrete_into(actions, rng, out);
  return out;
}

void VecEnv::step_discrete_into(const std::vector<std::size_t>& actions,
                                Rng& rng, StepBatch& out) {
  STELLARIS_CHECK_MSG(actions.size() == envs_.size(),
                      "VecEnv::step_discrete action count mismatch");
  step_impl(
      [&](std::size_t i, std::span<float> obs) {
        return envs_[i]->step_discrete_into(actions[i], obs);
      },
      rng, out);
}

void VecEnv::reset_env_into(std::size_t i, std::uint64_t seed,
                            std::span<float> obs) {
  STELLARIS_DCHECK(i < envs_.size());
  envs_[i]->reset_into(seed, obs);
}

StepOut VecEnv::step_env_into(std::size_t i, std::span<const float> action,
                              std::span<float> obs) {
  STELLARIS_DCHECK(i < envs_.size());
  ++total_steps_;
  return envs_[i]->step_into(action, obs);
}

StepOut VecEnv::step_env_discrete_into(std::size_t i, std::size_t action,
                                       std::span<float> obs) {
  STELLARIS_DCHECK(i < envs_.size());
  ++total_steps_;
  return envs_[i]->step_discrete_into(action, obs);
}

}  // namespace stellaris::envs
