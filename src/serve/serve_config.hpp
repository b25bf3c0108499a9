// Configuration for the policy-serving data plane (DESIGN.md §15).
//
// The serving tier is a second, independent consumer of the serverless
// substrate: it loads the versioned policy snapshots the trainer publishes
// into the distributed cache and answers client inference requests at
// production traffic rates — batched, autoscaled, admission-controlled, and
// canary-rolled — entirely on the virtual clock, so a (config, seed) pair
// replays bit-identically under either execution driver.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "serverless/latency_model.hpp"
#include "sim/driver.hpp"

namespace stellaris::serve {

/// Dynamic-batching cutoffs (TorchBeast-style batched inference): a lane
/// dispatches when it reaches `max_batch` requests, or when its oldest
/// request has waited `max_wait_s` of virtual time — whichever comes first.
struct BatchConfig {
  std::size_t max_batch = 32;
  double max_wait_s = 0.002;
};

/// Queue-depth autoscaling of the serving containers. Scale-up is immediate
/// (queues melt fastest when met early); scale-down steps one worker at a
/// time after `scale_down_idle_evals` consecutive low-load evaluations, so
/// a burst's trailing edge does not thrash the pool.
struct AutoscaleConfig {
  std::size_t min_workers = 1;
  std::size_t max_workers = 8;
  double eval_period_s = 0.25;
  /// Desired (queued + in-flight) requests per active worker.
  double queue_per_worker = 48.0;
  std::size_t scale_down_idle_evals = 8;
};

/// Overload admission control: arrivals beyond `max_queue` waiting requests
/// for the tenant are rejected at the door (cheap), instead of queuing into
/// latencies no client would wait for.
struct AdmissionConfig {
  std::size_t max_queue = 2048;
};

/// Canary rollout policy: a fraction of arrivals is assigned the canary
/// version; every `eval_period_s` the controller compares the canary arm
/// against the stable arm once it has `min_window_requests` canary samples.
/// A p99-latency-SLO breach or value-drift regression rolls back
/// immediately; `healthy_windows_to_promote` consecutive healthy windows
/// promote the canary to stable.
struct RolloutConfig {
  double eval_period_s = 5.0;
  std::size_t min_window_requests = 50;
  std::size_t healthy_windows_to_promote = 3;
  double slo_p99_s = 0.080;
  /// Max |canary value mean − stable value mean| / max(|stable|, 1) before
  /// the canary is declared drifted (the serving-side reward-drift proxy).
  double max_value_drift = 0.5;
};

/// Traffic shapes over the virtual clock.
enum class TrafficMode {
  kOpenPoisson,  ///< open loop: Poisson arrivals at rate_per_s
  kClosedLoop,   ///< closed loop: `concurrency` clients with think time
};

struct TrafficConfig {
  TrafficMode mode = TrafficMode::kOpenPoisson;
  double rate_per_s = 100.0;
  /// Optional burst phase (open loop): arrivals run at `burst_rate_per_s`
  /// inside [burst_start_s, burst_end_s). 0 disables the burst.
  double burst_rate_per_s = 0.0;
  double burst_start_s = 0.0;
  double burst_end_s = 0.0;
  /// Closed loop: concurrent clients and mean exponential think time.
  std::size_t concurrency = 64;
  double think_time_s = 0.050;
  /// Arrivals stop after this much virtual time; in-flight work drains.
  double duration_s = 60.0;
};

/// One tenant: a policy signature (obs/action space + width) plus its own
/// batching, admission, rollout, and traffic settings.
struct TenantConfig {
  std::string name = "tenant";
  std::size_t obs_dim = 11;
  std::size_t act_dim = 3;
  bool discrete = false;
  std::size_t hidden = 32;  ///< MLP width of the served network
  /// Stable policy version clients start on (published before run()).
  std::uint64_t initial_version = 1;
  BatchConfig batch;
  AdmissionConfig admission;
  RolloutConfig rollout;
  TrafficConfig traffic;
};

struct ServeConfig {
  std::vector<TenantConfig> tenants;
  /// Container-pool capacity for serving workers; autoscaling moves the
  /// ACTIVE worker count within [min_workers, max_workers] ⊆ [1, capacity].
  std::size_t worker_capacity = 16;
  /// $/s of one serving container; 0 → regular_small actor-core price.
  double unit_price_per_s = 0.0;
  AutoscaleConfig autoscale;
  serverless::LatencyModel latency;
  fault::FaultPlan faults;
  std::uint64_t seed = 42;
  sim::DriverKind driver = sim::DriverKind::kVirtual;
  std::size_t driver_threads = 0;
};

}  // namespace stellaris::serve
