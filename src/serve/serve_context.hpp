// Per-execution scratch for serving bodies (sim/driver.hpp, DESIGN.md §15).
//
// A batched forward needs a model whose weights are the batch's policy
// version; under the concurrent driver several batches (possibly different
// versions of the SAME tenant) run at once, so models cannot be shared. A
// LeasePool (util/lease_pool.hpp) leases one scratch ActorCritic per body
// execution; the body overwrites it (set_flat_params) before reading. One
// pool per tenant, because the model geometry is the tenant's (obs_dim,
// act_dim, hidden).
#pragma once

#include <cstdint>

#include "nn/actor_critic.hpp"
#include "serve/serve_config.hpp"
#include "util/lease_pool.hpp"

namespace stellaris::serve {

struct ServeContext {
  ServeContext(const TenantConfig& tenant, std::uint64_t seed)
      : model(nn::ObsSpec::vector(tenant.obs_dim),
              tenant.discrete ? nn::ActionKind::kDiscrete
                              : nn::ActionKind::kContinuous,
              tenant.act_dim, make_net(tenant), seed) {}

  static nn::NetworkSpec make_net(const TenantConfig& tenant) {
    nn::NetworkSpec net;
    net.hidden = {tenant.hidden, tenant.hidden};
    return net;
  }

  nn::ActorCritic model;  ///< scratch; set_flat_params before every forward
};

/// Leases one ServeContext per body execution, built from (tenant, seed).
using ServeContextPool = LeasePool<ServeContext, TenantConfig, std::uint64_t>;

}  // namespace stellaris::serve
