// Time-series recorder — windowed sampling of run health signals over the
// virtual clock.
//
// Counters and gauges (obs/metrics.hpp) answer "what happened over the
// whole run"; the ledger (obs/ledger.hpp) answers "what happened to this
// trajectory". The time-series recorder answers the question in between:
// *when* did staleness spike, how deep was the gradient queue while it
// did, how many actors were in flight, how fast was cost burning.
//
// Model: a sample is (series name, virtual time, value). Samples fall into
// fixed windows of `window_s` virtual seconds aligned at t = 0 (window k
// covers [k·w, (k+1)·w)); each window keeps count/min/max/sum/last.
// Windows that receive no samples are simply absent — gaps are preserved
// in the export, not zero-filled, so "the queue drained and nothing
// sampled it" is distinguishable from "the queue was empty".
//
// Like the ledger, this is an observation-only
// sink: sampling draws no randomness and schedules no events, so results
// are bit-identical with recording on or off. Call sites go through
// obs::timeseries() (one relaxed atomic load + branch when disabled).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/annotated_mutex.hpp"

namespace stellaris::obs {

/// Aggregate of the samples that landed in one window.
struct TimeSeriesWindow {
  std::int64_t index = 0;  ///< window start = index * window_s
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double last = 0.0;  ///< most recently sampled value (samples arrive in
                      ///< virtual-time order on the sim drivers)

  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
};

/// One exported series: name + its populated windows in index order.
struct TimeSeriesExport {
  std::string name;
  std::vector<TimeSeriesWindow> windows;
};

class TimeSeriesRecorder {
 public:
  /// `window_s` must be > 0; virtual seconds per window.
  explicit TimeSeriesRecorder(double window_s = 1.0);
  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  double window_s() const { return window_s_; }

  /// Record `value` for `series` at virtual time `t_s`. Negative times
  /// land in negative window indices (the sim never produces them, but
  /// the recorder does not assume).
  void sample(std::string_view series, double t_s, double value)
      EXCLUDES(mu_);

  /// Series names in lexicographic order.
  std::vector<std::string> series_names() const EXCLUDES(mu_);
  /// Populated windows of one series in window order (empty if unknown).
  std::vector<TimeSeriesWindow> windows(std::string_view series) const
      EXCLUDES(mu_);
  /// Everything, series in lexicographic order.
  std::vector<TimeSeriesExport> export_all() const EXCLUDES(mu_);

  /// CSV: series,window,t_lo,t_hi,count,min,max,mean,last — one line per
  /// populated window, series in lexicographic order.
  void write_csv(std::ostream& os) const;
  /// JSON: {"window_s":w,"series":{"<name>":[{...window...},...]}}.
  void write_json(std::ostream& os) const;
  /// Writes JSON for paths ending in ".json", CSV otherwise; false on I/O
  /// failure.
  bool write_file(const std::string& path) const;

 private:
  std::int64_t window_index(double t_s) const;

  const double window_s_;
  mutable Mutex mu_{"obs/timeseries", lock_rank::kTimeSeries};
  // std::map on both levels: export order must not depend on hash seeds or
  // insertion order, and the window map is iterated in index order.
  std::map<std::string, std::map<std::int64_t, TimeSeriesWindow>,
           std::less<>>
      series_ GUARDED_BY(mu_);
};

}  // namespace stellaris::obs
