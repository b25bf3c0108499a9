// Telemetry bit-identity gate (CI: telemetry-gate job).
//
// The observability layer's core contract is that it only *observes*: with
// ledger + time-series capture both enabled, a training run must
// produce bit-identical results to the same run with capture off. This gate
// enforces the contract end-to-end:
//
//   1. a clean fig06-style small run (Hopper) off vs fully on,
//   2. a faulty run (crashes, stragglers, a scripted VM reclaim) off vs on —
//      the fault/retry/reclaim paths emit the trickiest settle-time events,
//   3. the recorded ledger is analyzed in-process and the report must be
//      self-consistent: per-stage critical-path times sum to the total
//      virtual run time, and the wasted-cost attribution matches the fault
//      subsystem's own counters,
//   4. the Chrome trace rendered from each ledger parses and carries one
//      invocation span per `invoke` event,
//   5. a summary CSV is written at %.6g (coarse enough to dodge libm drift
//      across toolchains) for diffing against the tracked baseline
//      bench/baselines/telemetry_gate.csv.
//
// Flags:
//   --csv-out=<file>     summary CSV (default: telemetry_gate.csv)
//   --ledger-out=<file>  keep the faulty run's ledger (CI feeds it to
//                        stellaris_report as a smoke test)
//
// Exit code 0 = all gates hold; 1 = a mismatch, with details on stderr.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "tools/report/chrome_trace.hpp"
#include "tools/report/ledger_analysis.hpp"
#include "util/mini_json.hpp"

using namespace stellaris;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

void check_eq_u64(std::uint64_t a, std::uint64_t b, const char* what) {
  if (a != b) {
    std::fprintf(stderr, "FAIL: %s (%llu != %llu)\n", what,
                 static_cast<unsigned long long>(a),
                 static_cast<unsigned long long>(b));
    ++g_failures;
  }
}

void check_bits(double a, double b, const char* what) {
  // Bit-identity gate: exact equality, not a tolerance.
  if (!(a == b)) {
    std::fprintf(stderr, "FAIL: %s (%.17g != %.17g)\n", what, a, b);
    ++g_failures;
  }
}

void check_near(double a, double b, double tol, const char* what) {
  if (!(std::fabs(a - b) <= tol)) {
    std::fprintf(stderr, "FAIL: %s (%.17g vs %.17g, tol %g)\n", what, a, b,
                 tol);
    ++g_failures;
  }
}

core::TrainConfig small_config() {
  // Reduced fig06 shape: Hopper, small net, few rounds — seconds to run.
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
  auto cfg = small_config();
  cfg.faults.config.crash_prob = 0.15;
  cfg.faults.config.straggler_prob = 0.1;
  cfg.faults.config.straggler_mult = 3.0;
  // A scripted reclaim kills in-flight invocations mid-run: their spans and
  // ledger events must settle at the kill, not at the predicted end.
  cfg.faults.schedule.push_back({0.2, fault::FaultKind::kVmReclaim, -1, 0.0});
  return cfg;
}

/// Run with every recorder installed; recorders outlive the run so the
/// caller can inspect what was captured.
core::TrainResult run_instrumented(const core::TrainConfig& cfg,
                                   obs::LedgerRecorder& led,
                                   obs::TimeSeriesRecorder& ts) {
  obs::install_ledger(&led);
  obs::install_timeseries(&ts);
  auto result = core::run_training(cfg);
  obs::install_ledger(nullptr);
  obs::install_timeseries(nullptr);
  return result;
}

void expect_identical(const core::TrainResult& off,
                      const core::TrainResult& on, const char* label) {
  std::string p(label);
  check_eq_u64(off.rounds.size(), on.rounds.size(),
               (p + ": round count").c_str());
  const std::size_t n = std::min(off.rounds.size(), on.rounds.size());
  for (std::size_t i = 0; i < n; ++i) {
    check_bits(off.rounds[i].time_s, on.rounds[i].time_s,
               (p + ": round time_s").c_str());
    check_bits(off.rounds[i].reward, on.rounds[i].reward,
               (p + ": round reward").c_str());
    check_eq_u64(off.rounds[i].group_size, on.rounds[i].group_size,
                 (p + ": round group_size").c_str());
  }
  check_bits(off.total_time_s, on.total_time_s,
             (p + ": total_time_s").c_str());
  check_bits(off.total_cost_usd, on.total_cost_usd,
             (p + ": total_cost_usd").c_str());
  check_bits(off.final_reward, on.final_reward,
             (p + ": final_reward").c_str());
  check_eq_u64(off.faults.failed_invocations, on.faults.failed_invocations,
               (p + ": failed_invocations").c_str());
  check_eq_u64(off.faults.retries, on.faults.retries,
               (p + ": retries").c_str());
  check_bits(off.faults.wasted_cost_usd, on.faults.wasted_cost_usd,
             (p + ": wasted_cost_usd").c_str());
}

void check_report(const report::RunReport& rep,
                  const core::TrainResult& result, const char* label) {
  std::string p(label);
  // Critical-path times must tile the whole run: the sweep attributes every
  // elementary interval to exactly one stage, so only telescoped-sum float
  // rounding may separate the two.
  check_near(rep.stages.sum(), rep.t_end,
             1e-6 * std::max(1.0, rep.t_end),
             (p + ": stage sum == t_end").c_str());
  check_near(rep.stages.total, rep.t_end, 1e-6 * std::max(1.0, rep.t_end),
             (p + ": stages.total == t_end").c_str());
  check_eq_u64(rep.rounds, result.rounds.size(),
               (p + ": round events").c_str());
  // Fault accounting from invoke events must match the simulator's own
  // CostMeter (near: float-sum order differs between the two).
  check_eq_u64(rep.failed_invocations, result.faults.failed_invocations,
               (p + ": failed invocations").c_str());
  check_eq_u64(rep.retries, result.faults.retries, (p + ": retries").c_str());
  check_eq_u64(rep.giveups, result.faults.giveups, (p + ": giveups").c_str());
  check_eq_u64(rep.reclaims, result.faults.vm_reclaims,
               (p + ": reclaims").c_str());
  check_near(rep.wasted_cost_usd, result.faults.wasted_cost_usd, 1e-9,
             (p + ": wasted cost").c_str());
  check_near(rep.wasted_seconds, result.faults.wasted_seconds, 1e-9,
             (p + ": wasted seconds").c_str());
  check_near(rep.total_cost_usd, result.total_cost_usd, 1e-9,
             (p + ": total cost").c_str());
  check(rep.t_end > 0.0, (p + ": t_end > 0").c_str());
  check(!rep.staleness.empty(), (p + ": staleness per version").c_str());
}

/// The Chrome trace is a view of the ledger: it must parse, and carry one
/// invocation span per `invoke` event.
void check_trace(const std::vector<std::string>& lines, const char* label) {
  const std::string p(label);
  std::size_t invoke_events = 0;
  for (const auto& line : lines)
    if (minijson::parse(line).at("ev").string() == "invoke") ++invoke_events;
  std::ostringstream os;
  report::write_chrome_trace(lines, os);
  std::size_t invocation_spans = 0;
  try {
    const minijson::Value root = minijson::parse(os.str());
    for (const auto& ev : root.at("traceEvents").arr) {
      if (ev.at("ph").string() != "X") continue;
      const std::string& cat = ev.at("cat").string();
      if (cat == "actor" || cat == "learner" || cat == "parameter")
        ++invocation_spans;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: %s: trace does not parse (%s)\n", label,
                 e.what());
    ++g_failures;
  }
  check(invoke_events > 0, (p + ": invoke events recorded").c_str());
  check_eq_u64(invocation_spans, invoke_events,
               (p + ": one invocation span per invoke event").c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string csv_path = "telemetry_gate.csv";
  std::string ledger_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--csv-out=", 0) == 0) csv_path = arg.substr(10);
    else if (arg.rfind("--ledger-out=", 0) == 0) ledger_path = arg.substr(13);
  }

  // Driver flags (--driver=, --driver-threads=): the gate's identity checks
  // must hold under either execution driver, so CI runs it both ways.
  auto clean_cfg = small_config();
  bench::apply_driver_args(clean_cfg, argc, argv);
  auto faulty_cfg = faulty_config();
  bench::apply_driver_args(faulty_cfg, argc, argv);

  // 1. Clean run, capture off vs fully on.
  const auto clean_off = core::run_training(clean_cfg);
  obs::LedgerRecorder clean_led;
  obs::TimeSeriesRecorder clean_ts(1.0);
  const auto clean_on = run_instrumented(clean_cfg, clean_led, clean_ts);
  expect_identical(clean_off, clean_on, "clean");
  check(clean_led.size() > 0, "clean: ledger captured events");
  check(!clean_ts.series_names().empty(), "clean: time series captured");

  // 2. Faulty run (exercises crash/straggler/reclaim settle paths).
  const auto faulty_off = core::run_training(faulty_cfg);
  obs::LedgerRecorder faulty_led;
  obs::TimeSeriesRecorder faulty_ts(1.0);
  const auto faulty_on = run_instrumented(faulty_cfg, faulty_led, faulty_ts);
  expect_identical(faulty_off, faulty_on, "faulty");
  check(faulty_on.faults.failed_invocations > 0,
        "faulty: faults were injected");

  // 3. In-process report self-consistency on both captured ledgers.
  const auto clean_reports = report::analyze_ledger(clean_led.lines());
  check(clean_reports.size() == 1, "clean: one run in ledger");
  if (!clean_reports.empty())
    check_report(clean_reports.back(), clean_on, "clean report");
  const auto faulty_reports = report::analyze_ledger(faulty_led.lines());
  check(faulty_reports.size() == 1, "faulty: one run in ledger");
  if (!faulty_reports.empty()) {
    check_report(faulty_reports.back(), faulty_on, "faulty report");
    check(!faulty_reports.back().wasted.empty(),
          "faulty report: wasted-cost attribution present");
  }

  // 4. The derived Chrome trace of both captured ledgers.
  check_trace(clean_led.lines(), "clean trace");
  check_trace(faulty_led.lines(), "faulty trace");

  if (!ledger_path.empty()) {
    if (!faulty_led.write_file(ledger_path)) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", ledger_path.c_str());
      ++g_failures;
    }
  }

  // 5. Summary CSV at %.6g for the tracked-baseline diff.
  {
    std::ofstream csv(csv_path);
    if (!csv) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", csv_path.c_str());
      ++g_failures;
    } else {
      char buf[64];
      auto row = [&](const char* metric, double v) {
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        csv << metric << "," << buf << "\n";
      };
      csv << "metric,value\n";
      row("clean_rounds", static_cast<double>(clean_on.rounds.size()));
      row("clean_total_time_s", clean_on.total_time_s);
      row("clean_total_cost_usd", clean_on.total_cost_usd);
      row("clean_final_reward", clean_on.final_reward);
      row("clean_ledger_events", static_cast<double>(clean_led.size()));
      row("faulty_rounds", static_cast<double>(faulty_on.rounds.size()));
      row("faulty_total_time_s", faulty_on.total_time_s);
      row("faulty_total_cost_usd", faulty_on.total_cost_usd);
      row("faulty_failed_invocations",
          static_cast<double>(faulty_on.faults.failed_invocations));
      row("faulty_retries", static_cast<double>(faulty_on.faults.retries));
      row("faulty_wasted_cost_usd", faulty_on.faults.wasted_cost_usd);
      row("faulty_ledger_events", static_cast<double>(faulty_led.size()));
    }
  }

  if (g_failures) {
    std::fprintf(stderr, "telemetry_gate: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("telemetry_gate: all gates hold (results bit-identical with "
              "telemetry on/off; report self-consistent)\n");
  return 0;
}
