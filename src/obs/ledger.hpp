// Run ledger — structured, causally-linked lifecycle events over the
// virtual clock, one JSON object per line (JSONL).
//
// The ledger is the run's one causal record: every trajectory, gradient,
// and policy update carries propagated IDs (traj_id, learner_id, agg_id,
// policy_version, and the invocation ledger-id `lid` that produced it), so
// an offline tool can reconstruct the full causal path
//
//   actor rollout → cache put → learner claim → gradient → aggregation
//   gate decision → policy version bump
//
// and attribute virtual time and cost along it (tools/report/). The Chrome
// trace for Perfetto is a view of the same lines
// (tools/report/chrome_trace.hpp, `stellaris_report --chrome-trace=`).
//
// Event schema (shared contract with tools/report/ledger_analysis.cpp and
// DESIGN.md §13). Every event has `ev` (type), `run` (run id, stamped from
// obs::current_run() at construction), and `t` (virtual seconds). Doubles
// are rendered with round-trip precision (%.17g) so offline sums reproduce
// the simulator's arithmetic exactly.
//
// Cost model: the ledger is opt-in; when disabled the hot paths pay one
// relaxed atomic load + branch (see obs/obs.hpp), and an enabled ledger
// only observes — it draws no randomness and schedules no events, so
// results stay bit-identical with recording on or off.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/annotated_mutex.hpp"

namespace stellaris::obs {

/// Builder for one ledger line: `LedgerEvent("traj", t).field(...).finish()`.
/// Fields render eagerly into the line buffer; `finish()` closes the object.
class LedgerEvent {
 public:
  /// Starts `{"ev":"<ev>","run":<current run>,"t":<t_s>`.
  LedgerEvent(const char* ev, double t_s);

  LedgerEvent& field(std::string_view key, const std::string& v);
  LedgerEvent& field(std::string_view key, const char* v);
  LedgerEvent& field(std::string_view key, bool v);
  template <typename T,
            std::enable_if_t<std::is_arithmetic_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  LedgerEvent& field(std::string_view key, T v) {
    if constexpr (std::is_integral_v<T>) {
      append_raw(key, std::to_string(v));
    } else {
      append_raw(key, render_number(static_cast<double>(v)));
    }
    return *this;
  }
  /// Pre-rendered JSON fragment (arrays, nested objects). The caller is
  /// responsible for its validity.
  LedgerEvent& raw(std::string_view key, std::string_view json);

  /// Close the object and return the finished line (no trailing newline).
  std::string finish();

  /// Round-trip double rendering (%.17g; null for non-finite values).
  static std::string render_number(double v);
  /// JSON string quoting/escaping (shared with the array helpers below).
  static std::string quote(std::string_view s);

 private:
  void append_raw(std::string_view key, std::string_view json);

  std::string line_;
};

/// Render a numeric array `[a,b,...]` with round-trip precision — for
/// per-gradient staleness lists and trajectory-id groups.
std::string render_number_array(const std::vector<double>& xs);
std::string render_id_array(const std::vector<std::uint64_t>& ids);

/// Appends finished lines in emission order behind one mutex (the sim
/// drivers are single-threaded; the mutex makes the recorder safe for the
/// real-concurrency drivers and the TSan hammer tests).
class LedgerRecorder {
 public:
  LedgerRecorder();
  LedgerRecorder(const LedgerRecorder&) = delete;
  LedgerRecorder& operator=(const LedgerRecorder&) = delete;

  void append(std::string line) EXCLUDES(mu_);

  std::size_t size() const EXCLUDES(mu_);
  /// Snapshot of all lines in emission order (tests, in-process analysis).
  std::vector<std::string> lines() const EXCLUDES(mu_);

  /// One event per line, newline-terminated (JSONL).
  void write(std::ostream& os) const EXCLUDES(mu_);
  /// write() to `path`; false if the file cannot be opened or written.
  bool write_file(const std::string& path) const;

 private:
  mutable Mutex mu_{"obs/ledger", lock_rank::kLedger};
  std::vector<std::string> lines_ GUARDED_BY(mu_);
};

}  // namespace stellaris::obs
