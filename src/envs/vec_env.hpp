// Vectorized environment driver: N environment copies stepped as a batch.
//
// The paper's actors each own one environment; this wrapper is the
// substrate for the vectorized VecActor (DESIGN.md §17) that batches
// policy inference across envs. Envs are stepped in index order, so a
// batch step is deterministic for the same seeds.
//
// RNG discipline: every method that draws auto-reset seeds exists in two
// forms — a legacy form drawing from the member stream (constructor seed),
// and an overload taking a caller-supplied `Rng&`. Driver bodies MUST use
// the caller-`Rng` overloads with the per-invocation keyed stream: the
// member stream is cross-invocation state, and drawing it inside a body
// breaks replay identity (enforced by the driver-purity analyzer, which
// flags member-`rng_` draws in this class).
#pragma once

#include <memory>
#include <vector>

#include "envs/env.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace stellaris::envs {

class VecEnv {
 public:
  /// Construct `n` copies of `name`; `seed` seeds the member stream.
  VecEnv(const std::string& name, std::size_t n, std::uint64_t seed);

  std::size_t size() const { return envs_.size(); }
  const EnvSpec& spec() const { return spec_; }

  /// Reset every environment; returns stacked observations (n, obs_dim).
  /// Reset seeds are drawn from `rng` (one per env, in index order); the
  /// no-argument form draws from the member stream.
  Tensor reset_all();
  Tensor reset_all(Rng& rng);
  /// Allocation-free form: `obs` is reshaped to (n, obs_dim) reusing its
  /// capacity.
  void reset_all_into(Rng& rng, Tensor& obs);

  /// Step every environment with the given batch of actions. Continuous:
  /// `actions` is (n, act_dim). Environments that finish are auto-reset;
  /// their `done` flag is reported and the returned observation is the
  /// first of the new episode (the standard Gym vector-env contract).
  struct StepBatch {
    Tensor obs;                    ///< (n, obs_dim)
    std::vector<double> rewards;   ///< (n)
    std::vector<bool> dones;       ///< (n)
    std::vector<double> episode_returns;  ///< completed this step
  };
  StepBatch step(const Tensor& actions);
  StepBatch step(const Tensor& actions, Rng& rng);
  StepBatch step_discrete(const std::vector<std::size_t>& actions);
  StepBatch step_discrete(const std::vector<std::size_t>& actions, Rng& rng);
  /// Allocation-free forms: `out` buffers are reshaped in place; steady
  /// state performs zero heap allocations.
  void step_into(const Tensor& actions, Rng& rng, StepBatch& out);
  void step_discrete_into(const std::vector<std::size_t>& actions, Rng& rng,
                          StepBatch& out);

  // -- single-env forwards ---------------------------------------------------
  // Thin pass-throughs to env `i` for callers that manage episode
  // bookkeeping themselves (VecActor's lazy-reset semantics). They do NOT
  // auto-reset and do NOT touch the batch API's running-return state; only
  // total_steps() advances on steps.
  void reset_env_into(std::size_t i, std::uint64_t seed, std::span<float> obs);
  StepOut step_env_into(std::size_t i, std::span<const float> action,
                        std::span<float> obs);
  StepOut step_env_discrete_into(std::size_t i, std::size_t action,
                                 std::span<float> obs);

  /// Total environment steps taken across all copies.
  std::uint64_t total_steps() const { return total_steps_; }

 private:
  template <typename StepFn>
  void step_impl(const StepFn& fn, Rng& rng, StepBatch& out);

  EnvSpec spec_;
  std::vector<std::unique_ptr<Env>> envs_;
  std::vector<double> running_returns_;
  Rng rng_;
  std::uint64_t total_steps_ = 0;
};

}  // namespace stellaris::envs
