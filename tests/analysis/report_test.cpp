// End-to-end tests of the run-report analyzer (tools/report/): a real
// training run's ledger must analyze into a self-consistent report whose
// stage times tile the run and whose fault accounting matches the
// simulator's own counters — and recording must not perturb the run.
#include "tools/report/ledger_analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/stellaris_trainer.hpp"
#include "obs/obs.hpp"
#include "serve/serve_engine.hpp"
#include "util/error.hpp"

namespace stellaris::report {
namespace {

core::TrainConfig tiny_config() {
  core::TrainConfig cfg;
  cfg.env_name = "Hopper";
  cfg.rounds = 8;
  cfg.num_actors = 4;
  cfg.horizon = 32;
  cfg.trajs_per_learner = 2;
  cfg.network_width = 8;
  cfg.eval_episodes = 1;
  cfg.seed = 7;
  return cfg;
}

core::TrainConfig faulty_config() {
  auto cfg = tiny_config();
  cfg.faults.config.crash_prob = 0.15;
  cfg.faults.config.straggler_prob = 0.1;
  cfg.faults.config.straggler_mult = 3.0;
  return cfg;
}

/// Run a config with ledger (and time-series) capture; returns the result
/// and fills `lines` with the captured ledger.
core::TrainResult run_with_ledger(const core::TrainConfig& cfg,
                                  std::vector<std::string>& lines) {
  obs::LedgerRecorder led;
  obs::TimeSeriesRecorder ts(0.25);
  obs::install_ledger(&led);
  obs::install_timeseries(&ts);
  auto result = core::run_training(cfg);
  obs::install_ledger(nullptr);
  obs::install_timeseries(nullptr);
  lines = led.lines();
  return result;
}

void expect_identical(const core::TrainResult& a,
                      const core::TrainResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rounds[i].time_s, b.rounds[i].time_s);
    EXPECT_DOUBLE_EQ(a.rounds[i].reward, b.rounds[i].reward);
    EXPECT_EQ(a.rounds[i].group_size, b.rounds[i].group_size);
  }
  EXPECT_DOUBLE_EQ(a.total_time_s, b.total_time_s);
  EXPECT_DOUBLE_EQ(a.total_cost_usd, b.total_cost_usd);
  EXPECT_DOUBLE_EQ(a.final_reward, b.final_reward);
}

TEST(Report, RecordingDoesNotPerturbCleanRun) {
  std::vector<std::string> lines;
  const auto off = core::run_training(tiny_config());
  const auto on = run_with_ledger(tiny_config(), lines);
  expect_identical(off, on);
  EXPECT_FALSE(lines.empty());
}

TEST(Report, RecordingDoesNotPerturbFaultyRun) {
  std::vector<std::string> lines;
  const auto off = core::run_training(faulty_config());
  const auto on = run_with_ledger(faulty_config(), lines);
  expect_identical(off, on);
  EXPECT_EQ(off.faults.crashes, on.faults.crashes);
  EXPECT_EQ(off.faults.retries, on.faults.retries);
  EXPECT_DOUBLE_EQ(off.faults.wasted_cost_usd, on.faults.wasted_cost_usd);
}

TEST(Report, StageBreakdownTilesTheRun) {
  std::vector<std::string> lines;
  const auto result = run_with_ledger(tiny_config(), lines);
  const auto reports = analyze_ledger(lines);
  ASSERT_EQ(reports.size(), 1u);
  const RunReport& rep = reports.front();
  // Acceptance criterion: per-stage times sum to the total virtual run
  // time (± telescoped-float rounding).
  EXPECT_NEAR(rep.stages.sum(), rep.t_end, 1e-6 * std::max(1.0, rep.t_end));
  EXPECT_NEAR(rep.stages.total, rep.t_end, 1e-6 * std::max(1.0, rep.t_end));
  EXPECT_NEAR(rep.t_end, result.total_time_s, 1e-9);
  // Each stage is non-negative and some real work was attributed.
  EXPECT_GE(rep.stages.rollout, 0.0);
  EXPECT_GE(rep.stages.cache_wait, 0.0);
  EXPECT_GE(rep.stages.learn, 0.0);
  EXPECT_GE(rep.stages.aggregate_wait, 0.0);
  EXPECT_GE(rep.stages.aggregate, 0.0);
  EXPECT_GE(rep.stages.idle, 0.0);
  EXPECT_GT(rep.stages.rollout + rep.stages.learn, 0.0);
  EXPECT_EQ(rep.rounds, result.rounds.size());
}

TEST(Report, StalenessQuantilesPerVersion) {
  std::vector<std::string> lines;
  const auto result = run_with_ledger(tiny_config(), lines);
  const auto reports = analyze_ledger(lines);
  ASSERT_EQ(reports.size(), 1u);
  const RunReport& rep = reports.front();
  ASSERT_FALSE(rep.staleness.empty());
  std::size_t aggregated = 0;
  for (std::size_t i = 0; i < rep.staleness.size(); ++i) {
    const auto& s = rep.staleness[i];
    EXPECT_GT(s.count, 0u);
    EXPECT_LE(s.p50, s.p99);
    EXPECT_LE(s.p99, s.max);
    EXPECT_LE(s.mean, s.max);
    if (i) {
      EXPECT_LT(rep.staleness[i - 1].version, s.version);
    }
    aggregated += s.count;
  }
  // Every aggregated gradient carried one staleness sample.
  EXPECT_EQ(aggregated, result.staleness_samples.size());
}

TEST(Report, WastedCostMatchesFaultCounters) {
  std::vector<std::string> lines;
  const auto result = run_with_ledger(faulty_config(), lines);
  ASSERT_GT(result.faults.failed_invocations, 0u);
  const auto reports = analyze_ledger(lines);
  ASSERT_EQ(reports.size(), 1u);
  const RunReport& rep = reports.front();
  // Acceptance criterion: wasted-cost attribution matches the fault
  // subsystem's counters (near: float-sum order differs).
  EXPECT_EQ(rep.failed_invocations, result.faults.failed_invocations);
  EXPECT_EQ(rep.retries, result.faults.retries);
  EXPECT_EQ(rep.giveups, result.faults.giveups);
  EXPECT_NEAR(rep.wasted_cost_usd, result.faults.wasted_cost_usd, 1e-9);
  EXPECT_NEAR(rep.wasted_seconds, result.faults.wasted_seconds, 1e-9);
  EXPECT_NEAR(rep.total_cost_usd, result.total_cost_usd, 1e-9);
  ASSERT_FALSE(rep.wasted.empty());
  std::uint64_t by_error = 0;
  double cost_by_error = 0.0;
  for (const auto& w : rep.wasted) {
    by_error += w.count;
    cost_by_error += w.cost_usd;
  }
  EXPECT_EQ(by_error, rep.failed_invocations);
  EXPECT_NEAR(cost_by_error, rep.wasted_cost_usd, 1e-9);
}

TEST(Report, InjectedStragglersAreIdentified) {
  auto cfg = tiny_config();
  cfg.faults.config.straggler_prob = 0.3;
  cfg.faults.config.straggler_mult = 4.0;
  std::vector<std::string> lines;
  const auto result = run_with_ledger(cfg, lines);
  ASSERT_GT(result.faults.stragglers, 0u);
  const auto reports = analyze_ledger(lines);
  ASSERT_EQ(reports.size(), 1u);
  const RunReport& rep = reports.front();
  std::size_t injected = 0;
  for (const auto& s : rep.stragglers)
    if (s.injected) ++injected;
  EXPECT_GT(injected, 0u);
  // Sorted by descending ratio.
  for (std::size_t i = 1; i < rep.stragglers.size(); ++i)
    EXPECT_GE(rep.stragglers[i - 1].ratio, rep.stragglers[i].ratio);
}

TEST(Report, PrintAndJsonOutputsAreWellFormed) {
  std::vector<std::string> lines;
  run_with_ledger(tiny_config(), lines);
  const auto reports = analyze_ledger(lines);
  ASSERT_EQ(reports.size(), 1u);
  std::ostringstream text;
  print_report(text, reports.front());
  EXPECT_NE(text.str().find("critical-path breakdown"), std::string::npos);
  EXPECT_NE(text.str().find("staleness per policy version"),
            std::string::npos);
  EXPECT_NE(text.str().find("wasted-cost attribution"), std::string::npos);
  std::ostringstream json;
  write_report_json(json, reports.front());
  EXPECT_EQ(json.str().front(), '{');
}

TEST(Report, MalformedLedgerThrowsWithLineNumber) {
  std::vector<std::string> lines = {
      R"({"ev":"run_begin","run":1,"t":0})",
      "{not json",
  };
  try {
    analyze_ledger(lines);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Report, HostileIntegerFieldsThrowNamingLineAndKey) {
  // Every integer the analyzer reads, in the event that carries it: a
  // negative, huge, fractional or string id is an error, never a cast.
  const std::vector<std::pair<std::string, std::string>> positions = {
      {R"({"ev":"round","t":1)", "run"},
      {R"({"ev":"invoke","run":1,"t":1)", "lid"},
      {R"({"ev":"agg_end","run":1,"t":1)", "version"},
      {R"({"ev":"serve_batch","run":1,"t":1)", "n"},
      {R"({"ev":"serve_start","run":1,"t":1)", "workers"},
      {R"({"ev":"serve_scale","run":1,"t":1)", "from"},
      {R"({"ev":"serve_scale","run":1,"t":1)", "to"},
      {R"({"ev":"restore","run":1,"t":1)", "dropped"},
  };
  for (const auto& [prefix, key] : positions) {
    for (const char* bad : {"-1", "1e300", "2.5", "\"x\""}) {
      const std::vector<std::string> lines = {
          R"({"ev":"run_begin","run":1,"t":0})",
          prefix + ",\"" + key + "\":" + bad + "}"};
      try {
        analyze_ledger(lines);
        ADD_FAILURE() << "no throw for " << key << "=" << bad;
      } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
        EXPECT_NE(what.find("\"" + key + "\""), std::string::npos) << what;
      }
    }
  }
}

TEST(Report, EmptyAndBlankLedgersProduceNoReports) {
  EXPECT_TRUE(analyze_ledger({}).empty());
  EXPECT_TRUE(analyze_ledger({"", "  "}).empty());
}

TEST(Report, ServeSummaryMatchesEngineCounters) {
  // A serving run's ledger analyzes into a serve section whose per-tenant
  // counts and quantiles reproduce the engine's own result struct.
  serve::ServeConfig cfg;
  serve::TenantConfig t;
  t.name = "walker";
  t.obs_dim = 8;
  t.act_dim = 3;
  t.hidden = 16;
  t.batch.max_batch = 16;
  t.batch.max_wait_s = 0.002;
  t.traffic.rate_per_s = 400.0;
  t.traffic.duration_s = 5.0;
  cfg.tenants = {t};
  cfg.worker_capacity = 8;
  cfg.autoscale.max_workers = 4;
  cfg.seed = 42;

  obs::LedgerRecorder led;
  obs::install_ledger(&led);
  serve::ServeEngine eng(cfg);
  eng.publish_policy(0, serve::make_policy_params(t, 1), 1);
  const auto res = eng.run();
  obs::install_ledger(nullptr);

  const auto reports = analyze_ledger(led.lines());
  ASSERT_EQ(reports.size(), 1u);
  const auto& rep = reports.front();
  ASSERT_EQ(rep.serve.tenants.size(), 1u);
  const auto& st = rep.serve.tenants[0];
  const auto& tr = res.tenants[0];
  EXPECT_EQ(st.tenant, "walker");
  EXPECT_EQ(st.completed, tr.completed);
  EXPECT_EQ(st.failed, tr.failed);
  EXPECT_EQ(st.rejected, tr.rejected);
  EXPECT_EQ(st.batches, tr.batches);
  EXPECT_DOUBLE_EQ(st.mean_batch, tr.mean_batch);
  // Same latency samples, same nearest-rank definition → exact equality.
  EXPECT_EQ(st.p50_s, tr.p50_s);
  EXPECT_EQ(st.p99_s, tr.p99_s);
  EXPECT_EQ(st.p999_s, tr.p999_s);
  EXPECT_EQ(rep.serve.peak_workers, res.peak_workers);
  EXPECT_EQ(rep.serve.scale_ups, res.scale_ups);
  EXPECT_EQ(rep.serve.scale_downs, res.scale_downs);

  std::ostringstream text;
  print_report(text, rep);
  EXPECT_NE(text.str().find("serving tier"), std::string::npos);
  std::ostringstream json;
  write_report_json(json, rep);
  EXPECT_NE(json.str().find("\"serve\":{\"tenants\":["), std::string::npos);

  // Training-only reports skip the section entirely.
  std::vector<std::string> train_lines;
  run_with_ledger(tiny_config(), train_lines);
  const auto train_rep = analyze_ledger(train_lines).front();
  EXPECT_TRUE(train_rep.serve.tenants.empty());
  std::ostringstream train_text;
  print_report(train_text, train_rep);
  EXPECT_EQ(train_text.str().find("serving tier"), std::string::npos);
}

TEST(Report, MultiRunLedgersSplitPerRun) {
  // Two runs captured into one recorder (multi-seed bench style) analyze
  // into two reports keyed by the run id.
  obs::LedgerRecorder led;
  obs::install_ledger(&led);
  auto cfg = tiny_config();
  cfg.rounds = 3;
  (void)core::run_training(cfg);
  cfg.seed = 8;
  (void)core::run_training(cfg);
  obs::install_ledger(nullptr);
  const auto reports = analyze_ledger(led.lines());
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_LT(reports[0].run, reports[1].run);
  for (const auto& rep : reports) {
    EXPECT_EQ(rep.rounds, 3u);
    EXPECT_NEAR(rep.stages.sum(), rep.t_end,
                1e-6 * std::max(1.0, rep.t_end));
  }
}

}  // namespace
}  // namespace stellaris::report
