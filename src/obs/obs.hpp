// Observability entry point: process-global slots for the run ledger and
// the time-series recorder, the shared metrics registry, and the RAII
// session that benches/tools use to turn capture on.
//
// The ledger is the run's one causal record; the Chrome trace is a view
// rendered from it offline (`stellaris_report --chrome-trace=`).
//
// Cost model (the reward/cost/time figures must be unchanged by this
// subsystem):
//  - capture off (default): `obs::ledger()` / `obs::timeseries()` are each
//    one relaxed atomic load and a branch at the call site — no
//    allocation, no formatting;
//  - metrics: instruments are resolved once at component construction and
//    updated with relaxed atomics;
//  - none of it feeds back into the simulation (no RNG draws, no
//    virtual-time events), so results are bit-identical with observability
//    on or off (enforced by bench/telemetry_gate and CI).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace stellaris::obs {

namespace detail {
extern std::atomic<LedgerRecorder*> g_ledger;
extern std::atomic<TimeSeriesRecorder*> g_timeseries;
extern std::atomic<std::uint64_t> g_run_counter;
}  // namespace detail

/// The active run ledger, or nullptr when ledger capture is disabled.
inline LedgerRecorder* ledger() {
  return detail::g_ledger.load(std::memory_order_acquire);
}

/// The active time-series recorder, or nullptr when sampling is disabled.
inline TimeSeriesRecorder* timeseries() {
  return detail::g_timeseries.load(std::memory_order_acquire);
}

/// The process-wide metrics registry (always available).
inline MetricsRegistry& metrics() { return MetricsRegistry::global(); }

/// Install (or, with nullptr, remove) the global run ledger. The caller
/// keeps ownership; ObsSession is the usual owner. Same contract for the
/// time-series recorder.
void install_ledger(LedgerRecorder* recorder);
void install_timeseries(TimeSeriesRecorder* recorder);

/// Runs are numbered so several training runs captured into one ledger
/// (multi-seed benches) stay separable offline. A trainer calls
/// begin_run() once per run.
std::uint64_t begin_run();

/// The current run id (0 before the first begin_run()). Ledger events are
/// stamped with this.
std::uint64_t current_run();

struct ObsOptions {
  std::string metrics_path;     ///< empty → no metrics dump at session end
  std::string ledger_path;      ///< empty → run-ledger capture disabled
  std::string timeseries_path;  ///< empty → time-series sampling disabled
  double timeseries_window_s = 1.0;  ///< virtual seconds per sample window
  bool reset_metrics = true;  ///< zero the global registry at session start
};

/// RAII capture session: installs recorders for every path given in the
/// options, and writes the metrics / ledger / time-series files on
/// destruction.
class ObsSession {
 public:
  explicit ObsSession(ObsOptions opts);
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// The session's recorders (nullptr when the matching capture is off).
  LedgerRecorder* ledger() { return ledger_.get(); }
  TimeSeriesRecorder* timeseries() { return timeseries_.get(); }

 private:
  ObsOptions opts_;
  std::unique_ptr<LedgerRecorder> ledger_;
  std::unique_ptr<TimeSeriesRecorder> timeseries_;
};

}  // namespace stellaris::obs
