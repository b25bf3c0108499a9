// Per-execution scratch for invocation bodies (sim/driver.hpp).
//
// Under the virtual driver one body runs at a time, so a single set of
// scratch models would suffice; under the concurrent driver up to
// `--driver-threads` bodies run at once, each needing its own model
// buffers. A WorkerContext bundles everything a body mutates — scratch
// actor-critic models and batch-ingest buffers — and a LeasePool
// (util/lease_pool.hpp) leases one per body execution, creating contexts on
// demand up to the observed concurrency. Every field is fully overwritten
// (set_flat_params / deserialize_into) before it is read.
#pragma once

#include <cstdint>
#include <vector>

#include "envs/env.hpp"
#include "nn/actor_critic.hpp"
#include "rl/sample_batch.hpp"
#include "rl/vec_actor.hpp"
#include "util/lease_pool.hpp"

namespace stellaris::core {

struct WorkerContext {
  WorkerContext(const envs::EnvSpec& env_spec, const nn::NetworkSpec& net_spec,
                std::uint64_t seed)
      : model(env_spec.obs, env_spec.action_kind, env_spec.act_dim, net_spec,
              seed),
        target(env_spec.obs, env_spec.action_kind, env_spec.act_dim, net_spec,
               seed ^ 0x7a6eULL) {}

  nn::ActorCritic model;   ///< actor policy / learner local model
  nn::ActorCritic target;  ///< IMPACT target network
  std::vector<rl::SampleBatch> parts;  ///< deserialize_into scratch
  rl::SampleBatch concat;              ///< multi-trajectory concat scratch
  rl::VecActorScratch vec_scratch;     ///< VecActor::sample batch scratch
};

/// Leases one WorkerContext per body execution, built from
/// (env_spec, net_spec, seed).
using WorkerContextPool =
    LeasePool<WorkerContext, envs::EnvSpec, nn::NetworkSpec, std::uint64_t>;

}  // namespace stellaris::core
