// ServeEngine end-to-end: batched inference over the virtual clock,
// cross-driver bit-identity, canary promote/rollback, admission under
// overload, queue-depth autoscaling, and snapshot decode reuse.
#include "serve/serve_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace stellaris::serve {
namespace {

TenantConfig small_tenant(const std::string& name) {
  TenantConfig t;
  t.name = name;
  t.obs_dim = 8;
  t.act_dim = 3;
  t.hidden = 16;
  t.batch.max_batch = 16;
  t.batch.max_wait_s = 0.002;
  t.traffic.rate_per_s = 400.0;
  t.traffic.duration_s = 5.0;
  return t;
}

ServeConfig base_config() {
  ServeConfig cfg;
  cfg.tenants = {small_tenant("walker")};
  cfg.worker_capacity = 8;
  cfg.autoscale.max_workers = 4;
  cfg.autoscale.eval_period_s = 0.25;
  cfg.seed = 42;
  return cfg;
}

ServeResult run_scenario(const ServeConfig& cfg) {
  ServeEngine eng(cfg);
  for (std::size_t t = 0; t < cfg.tenants.size(); ++t)
    eng.publish_policy(
        t,
        make_policy_params(cfg.tenants[t],
                           cfg.seed ^ (0x5e4e + t)),
        cfg.tenants[t].initial_version);
  return eng.run();
}

TEST(ServeEngine, ServesOpenLoopTraffic) {
  const auto res = run_scenario(base_config());
  ASSERT_EQ(res.tenants.size(), 1u);
  const auto& tr = res.tenants[0];
  EXPECT_GT(tr.issued, 1500u);
  EXPECT_EQ(tr.completed, tr.issued);  // no faults, no overload
  EXPECT_EQ(tr.failed, 0u);
  EXPECT_EQ(tr.rejected, 0u);
  EXPECT_EQ(res.completed, tr.completed);
  // Dynamic batching actually batched (rate 400/s vs 2 ms cutoff).
  EXPECT_GT(tr.mean_batch, 1.2);
  // Quantiles are ordered and positive.
  EXPECT_GT(tr.p50_s, 0.0);
  EXPECT_LE(tr.p50_s, tr.p99_s);
  EXPECT_LE(tr.p99_s, tr.p999_s);
  EXPECT_GT(res.cost_usd, 0.0);
  EXPECT_EQ(res.wasted_cost_usd, 0.0);
  EXPECT_GT(res.requests_per_hour, 0.0);
  // Makespan: arrivals stop at 5 s and the tail drains quickly; dead timers
  // must not stretch virtual time.
  EXPECT_LT(res.duration_s, 6.0);
}

TEST(ServeEngine, SnapshotDecodedOncePerVersion) {
  const auto cfg = base_config();
  ServeEngine eng(cfg);
  eng.publish_policy(0, make_policy_params(cfg.tenants[0], 1), 1);
  const auto res = eng.run();
  ASSERT_GT(res.tenants[0].batches, 1u);
  // One published version -> one decode; every other batch reuses it.
  EXPECT_EQ(res.policy_decodes, 1u);
  EXPECT_EQ(res.policy_reuses, res.tenants[0].batches - 1);
}

TEST(ServeEngine, BatchesStopAllocatingTensorsOnceWarm) {
  // Full four-row batches from the start: every batch has the shape the
  // leased context's observation tensor and layer outputs were sized for,
  // so a run three times as long allocates no more tensor buffers.
  auto allocs_for = [](double duration_s) {
    auto cfg = base_config();
    cfg.tenants[0].batch.max_batch = 4;
    cfg.tenants[0].traffic.rate_per_s = 1500.0;
    cfg.tenants[0].traffic.duration_s = duration_s;
    const std::uint64_t before = tensor_buffer_allocs();
    const auto res = run_scenario(cfg);
    EXPECT_EQ(res.completed, res.issued);
    return std::make_pair(tensor_buffer_allocs() - before,
                          res.tenants[0].batches);
  };
  const auto [short_allocs, short_batches] = allocs_for(1.0);
  const auto [long_allocs, long_batches] = allocs_for(3.0);
  EXPECT_GT(long_batches, 2 * short_batches);
  EXPECT_EQ(long_allocs, short_allocs);
}

TEST(ServeEngine, RepublishedVersionServesItsNewParams) {
  // A version republished mid-run with new params must be served with
  // them, although leased contexts already hold that version number. The
  // all-zero policy predicts exactly 0, so a run that switches Z -> Q at
  // 2.5 s sums Q's values after the switch, one that switches Q -> Z sums
  // Q's values before it, and together they make up a fresh engine's
  // Q-only checksum.
  for (const sim::DriverKind driver :
       {sim::DriverKind::kVirtual, sim::DriverKind::kConcurrent}) {
    auto cfg = base_config();
    cfg.driver = driver;
    cfg.driver_threads = 4;
    const std::vector<float> q = make_policy_params(cfg.tenants[0], 5);
    const std::vector<float> z(q.size(), 0.0f);
    auto run_switching = [&](const std::vector<float>& first,
                             const std::vector<float>& then) {
      ServeEngine eng(cfg);
      eng.publish_policy(0, first, 1);
      eng.engine().schedule_at(2.5, [&] { eng.publish_policy(0, then, 1); });
      return eng.run();
    };
    const ServeResult fresh = run_switching(q, q);
    const ServeResult z_then_q = run_switching(z, q);
    const ServeResult q_then_z = run_switching(q, z);
    ASSERT_EQ(z_then_q.completed, fresh.completed);
    ASSERT_EQ(q_then_z.completed, fresh.completed);
    const double full = fresh.tenants[0].value_checksum;
    const double after = z_then_q.tenants[0].value_checksum;
    const double before = q_then_z.tenants[0].value_checksum;
    EXPECT_NE(after, 0.0);
    EXPECT_NE(before, full);
    EXPECT_NEAR(before + after, full, 1e-9 * std::fabs(full));
  }
}

TEST(ServeEngine, CrossDriverBitIdentity) {
  auto cfg = base_config();
  cfg.driver = sim::DriverKind::kVirtual;
  const auto virt = run_scenario(cfg);
  cfg.driver = sim::DriverKind::kConcurrent;
  cfg.driver_threads = 4;
  const auto conc = run_scenario(cfg);

  EXPECT_EQ(virt.completed, conc.completed);
  EXPECT_EQ(virt.issued, conc.issued);
  EXPECT_EQ(virt.duration_s, conc.duration_s);
  EXPECT_EQ(virt.cost_usd, conc.cost_usd);
  ASSERT_EQ(virt.tenants.size(), conc.tenants.size());
  for (std::size_t t = 0; t < virt.tenants.size(); ++t) {
    EXPECT_EQ(virt.tenants[t].value_checksum, conc.tenants[t].value_checksum);
    EXPECT_EQ(virt.tenants[t].latency_sum_s, conc.tenants[t].latency_sum_s);
    EXPECT_EQ(virt.tenants[t].p99_s, conc.tenants[t].p99_s);
    EXPECT_EQ(virt.tenants[t].batches, conc.tenants[t].batches);
  }
}

TEST(ServeEngine, CanaryPromotesAfterHealthyWindows) {
  auto cfg = base_config();
  auto& t = cfg.tenants[0];
  t.traffic.duration_s = 12.0;
  t.rollout.eval_period_s = 1.0;
  t.rollout.min_window_requests = 20;
  t.rollout.healthy_windows_to_promote = 2;
  t.rollout.slo_p99_s = 1.0;          // loose: latency cannot breach
  t.rollout.max_value_drift = 1e9;    // drift cannot trip
  ServeEngine eng(cfg);
  eng.publish_policy(0, make_policy_params(t, 1), 1);
  eng.publish_policy(0, make_policy_params(t, 2), 2);
  eng.schedule_canary(0, 2, 0.3, 1.0);
  const auto res = eng.run();
  EXPECT_EQ(res.tenants[0].promotions, 1u);
  EXPECT_EQ(res.tenants[0].rollbacks, 0u);
  EXPECT_EQ(res.tenants[0].final_stable_version, 2u);
}

TEST(ServeEngine, CanaryRollsBackOnLatencySloBreach) {
  auto cfg = base_config();
  auto& t = cfg.tenants[0];
  t.traffic.duration_s = 12.0;
  t.rollout.eval_period_s = 1.0;
  t.rollout.min_window_requests = 20;
  t.rollout.slo_p99_s = 0.060;
  t.rollout.max_value_drift = 1e9;
  ServeEngine eng(cfg);
  eng.publish_policy(0, make_policy_params(t, 1), 1);
  // The canary is a much heavier model behind the same API: its serving
  // compute alone exceeds the p99 SLO, so the controller must roll back.
  eng.publish_policy(0, make_policy_params(t, 2), 2, /*cost_mult=*/50.0);
  eng.schedule_canary(0, 2, 0.3, 1.0);
  const auto res = eng.run();
  EXPECT_EQ(res.tenants[0].rollbacks, 1u);
  EXPECT_EQ(res.tenants[0].promotions, 0u);
  EXPECT_EQ(res.tenants[0].final_stable_version, 1u);
}

TEST(ServeEngine, AdmissionShedsOverload) {
  auto cfg = base_config();
  auto& t = cfg.tenants[0];
  t.traffic.rate_per_s = 5000.0;  // far beyond one worker's capacity
  t.traffic.duration_s = 3.0;
  t.admission.max_queue = 256;
  cfg.autoscale.min_workers = 1;
  cfg.autoscale.max_workers = 1;  // pin capacity so the queue must fill
  const auto res = run_scenario(cfg);
  const auto& tr = res.tenants[0];
  EXPECT_GT(tr.rejected, 0u);
  EXPECT_GT(tr.completed, 0u);
  // Conservation: every arrival is exactly one of rejected/completed/failed.
  EXPECT_EQ(tr.issued, tr.rejected + tr.completed + tr.failed);
  // The queue never exceeded the admission cap by construction; latency of
  // admitted requests stays bounded by (queue cap / service rate).
  EXPECT_LT(tr.p999_s, 3.0);
}

TEST(ServeEngine, AutoscalerAbsorbsBurst) {
  auto cfg = base_config();
  auto& t = cfg.tenants[0];
  t.traffic.rate_per_s = 100.0;
  t.traffic.burst_rate_per_s = 3000.0;
  t.traffic.burst_start_s = 2.0;
  t.traffic.burst_end_s = 4.0;
  t.traffic.duration_s = 8.0;
  cfg.autoscale.min_workers = 1;
  cfg.autoscale.max_workers = 6;
  cfg.autoscale.queue_per_worker = 16.0;
  cfg.autoscale.eval_period_s = 0.1;
  cfg.autoscale.scale_down_idle_evals = 4;
  const auto res = run_scenario(cfg);
  EXPECT_GT(res.peak_workers, 1u);
  EXPECT_GE(res.scale_ups, 1u);
  // The trailing edge scales back down after the burst drains.
  EXPECT_GE(res.scale_downs, 1u);
  EXPECT_EQ(res.completed + res.rejected + res.failed, res.issued);
}

TEST(ServeEngine, MultiTenantIsolatesStreams) {
  auto cfg = base_config();
  cfg.tenants.push_back(small_tenant("arcade"));
  cfg.tenants[1].obs_dim = 12;
  cfg.tenants[1].act_dim = 4;
  cfg.tenants[1].discrete = true;
  cfg.tenants[1].traffic.rate_per_s = 150.0;
  const auto res = run_scenario(cfg);
  ASSERT_EQ(res.tenants.size(), 2u);
  EXPECT_GT(res.tenants[0].completed, 0u);
  EXPECT_GT(res.tenants[1].completed, 0u);
  EXPECT_NE(res.tenants[0].value_checksum, res.tenants[1].value_checksum);
}

}  // namespace
}  // namespace stellaris::serve
