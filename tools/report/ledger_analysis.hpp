// Offline analysis of a Stellaris run ledger (obs/ledger.hpp JSONL).
//
// Consumes the event stream a training run emitted under --ledger-out= and
// reconstructs, per run:
//
//  - the **critical-path breakdown**: every instant of virtual run time
//    [0, t_end] is attributed to exactly one stage by a priority sweep
//    (aggregate > aggregate_wait > learn > cache_wait > rollout > idle),
//    so the per-stage times sum to the total virtual run time (±float
//    rounding from the telescoped interval sum);
//  - **p50/p99 staleness per policy version** from the aggregation events'
//    per-gradient staleness lists (exact nearest-rank quantiles);
//  - **straggler identification**: invocations flagged by the fault plane
//    (straggler_mult) plus statistical outliers whose compute time exceeds
//    `straggler_factor` × the median of their function kind;
//  - **wasted-cost attribution**: spend and billed seconds of failed
//    invocations grouped by error kind, matching the fault subsystem's
//    CostMeter counters.
//
// The stage priority mirrors the pipeline's dependency order: while an
// aggregation runs nothing downstream can proceed (aggregate); gradients
// waiting in the queue mean learning finished but the gate holds the
// update back (aggregate_wait); a learner in flight is learning (learn);
// published-but-unclaimed trajectories are waiting for a learner slot
// (cache_wait); otherwise in-flight actors are rolling out (rollout).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/mini_json.hpp"

namespace stellaris::report {

// ---- Shared reading layer ---------------------------------------------------
// Every ledger consumer in tools/report/ (this analyzer and the Chrome-trace
// renderer, chrome_trace.hpp) reads lines, fields and queue depths through
// these, so the two views of a ledger cannot disagree on what a line means.

/// One parsed ledger event.
struct LedgerLine {
  std::size_t lineno = 0;  ///< 1-based line number in the input
  std::string type;        ///< the `ev` tag
  std::uint64_t run = 0;   ///< the `run` id
  double t = 0.0;          ///< virtual seconds
  minijson::Value ev;      ///< the whole object
};

/// Calls `fn` on every event line, in order. Blank lines, and JSON values
/// that are not objects with an `ev` tag, are skipped. Throws
/// stellaris::Error naming the line on malformed JSON, on a bad `run` id,
/// and on any error `fn` throws for that line.
void for_each_event(const std::vector<std::string>& lines,
                    const std::function<void(const LedgerLine&)>& fn);

/// Field reads that fall back when the key is absent or has another type.
double num_or(const minijson::Value& obj, const std::string& key,
              double fallback);
std::string str_or(const minijson::Value& obj, const std::string& key,
                   const std::string& fallback);
/// Checked integer field (ids, counts, sizes): `fallback` when absent;
/// otherwise the value must be a finite, non-negative integer ≤ 2^53, or
/// this throws stellaris::Error naming the key.
std::uint64_t id_or(const minijson::Value& obj, const std::string& key,
                    std::uint64_t fallback);

/// Queue-depth changes over virtual time: timestamp → net count change,
/// merged per timestamp (std::map keeps the boundaries sorted).
struct QueueDeltas {
  std::map<double, long> pending_traj;  ///< published, unclaimed trajectories
  std::map<double, long> grad_queue;    ///< gradients awaiting aggregation
};

/// Folds `e` into `d` when it changes a queue depth (`traj`,
/// `learner_claim`, `traj_requeue`, `grad`, `agg_begin`); returns whether
/// it did.
bool add_queue_delta(const LedgerLine& e, QueueDeltas& d);

// ---- Run report -------------------------------------------------------------

/// Virtual-time occupancy per pipeline stage; fields sum to `total`.
struct StageBreakdown {
  double rollout = 0.0;
  double cache_wait = 0.0;
  double learn = 0.0;
  double aggregate_wait = 0.0;
  double aggregate = 0.0;
  double idle = 0.0;
  double total = 0.0;

  double sum() const {
    return rollout + cache_wait + learn + aggregate_wait + aggregate + idle;
  }
};

/// Staleness distribution of the gradient group that produced `version`.
struct StalenessByVersion {
  std::uint64_t version = 0;
  std::size_t count = 0;
  double p50 = 0.0;  ///< nearest-rank
  double p99 = 0.0;  ///< nearest-rank
  double mean = 0.0;
  double max = 0.0;
};

struct Straggler {
  std::uint64_t lid = 0;  ///< invocation ledger id (0 if unassigned)
  std::string kind;
  double compute_s = 0.0;
  double ratio = 0.0;    ///< compute_s / median compute_s of this kind
  bool injected = false;  ///< flagged by the fault plane (straggler_mult)
};

/// Failed-invocation spend grouped by error kind.
struct WastedCost {
  std::string error;
  std::uint64_t count = 0;
  double billed_s = 0.0;
  double cost_usd = 0.0;
};

/// Per-tenant serving-tier rollup from the `serve_*` event stream
/// (DESIGN.md §15). Latency quantiles are nearest-rank over the per-request
/// latencies recorded in each batch's `lat` array.
struct ServeTenantSummary {
  std::string tenant;
  std::uint64_t completed = 0;  ///< requests in batches that settled ok
  std::uint64_t failed = 0;     ///< requests in crashed batches
  std::uint64_t rejected = 0;   ///< shed by admission control
  std::uint64_t batches = 0;
  double mean_batch = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double p999_s = 0.0;
  double cost_usd = 0.0;
  std::uint64_t canary_starts = 0;
  std::uint64_t promotions = 0;
  std::uint64_t rollbacks = 0;
};

/// Serving-tier section of a run report; `tenants` empty means the run
/// emitted no serve events (pure training runs skip the section).
struct ServeSummary {
  std::vector<ServeTenantSummary> tenants;  ///< by ascending tenant name
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  std::uint64_t peak_workers = 0;
};

struct RunReport {
  std::uint64_t run = 0;
  std::size_t events = 0;
  double t_end = 0.0;  ///< total virtual run time
  StageBreakdown stages;
  std::vector<StalenessByVersion> staleness;  ///< by ascending version
  std::vector<Straggler> stragglers;          ///< by descending ratio
  std::vector<WastedCost> wasted;             ///< by error name
  ServeSummary serve;                         ///< empty for training runs

  // Run totals from the invoke stream.
  std::uint64_t invocations = 0;
  std::uint64_t failed_invocations = 0;
  double total_cost_usd = 0.0;
  double wasted_cost_usd = 0.0;
  double wasted_seconds = 0.0;
  std::uint64_t retries = 0;
  std::uint64_t giveups = 0;
  std::uint64_t reclaims = 0;
  std::uint64_t rounds = 0;

  // Fault / recovery plane.
  std::uint64_t checkpoints = 0;        ///< `ckpt` events
  std::uint64_t restores = 0;           ///< `restore` events
  std::uint64_t dropped_gradients = 0;  ///< summed over restores
  std::uint64_t faults_injected = 0;    ///< `fault_injected` events
};

struct AnalysisOptions {
  /// Statistical straggler threshold: compute_s > factor × kind median.
  double straggler_factor = 2.0;
};

/// Analyze ledger lines (one JSON object per line; blank lines ignored).
/// Returns one report per distinct `run` id, in ascending run order.
/// Throws stellaris::Error (a std::runtime_error) naming the line on
/// malformed JSON or a bad integer field.
std::vector<RunReport> analyze_ledger(const std::vector<std::string>& lines,
                                      const AnalysisOptions& opts = {});

/// The lines of a JSONL ledger file. Throws stellaris::Error if the file
/// cannot be opened.
std::vector<std::string> read_ledger_file(const std::string& path);

/// Human-readable report (the stellaris_report CLI output).
void print_report(std::ostream& os, const RunReport& report);

/// Machine-readable single-object JSON for one run.
void write_report_json(std::ostream& os, const RunReport& report);

}  // namespace stellaris::report
