// Chrome trace view of a run ledger (obs/ledger.hpp JSONL).
//
// The ledger is the run's one causal record; this renders it as Chrome
// `trace_event` JSON over the *virtual* clock (seconds → µs) for
// Perfetto / chrome://tracing. Tracks ("threads") are named
// `run<run>/...` and labelled with `thread_name` metadata; tids follow the
// order in which tracks first appear in the ledger.
//
//  - `run<r>/{gpu,actors}/<container>`: one span per `invoke` event, named
//    and categorized by its function kind, with nested `phase` spans
//    (cold/warm start, cache read or data in, compute, cache write / data
//    out / policy broadcast) clipped to the parent span — a crashed or
//    reclaimed invocation ends at the kill;
//  - `run<r>/trainer`: the `train` span (run_begin → run_end) and
//    instants for trajectories, gradients, checkpoints and restores;
//  - `run<r>/trainer/rounds`: one span per round, from the previous round
//    (or run_begin) to this one;
//  - `run<r>/faults`: retry and VM-reclaim instants;
//  - counters `run<r>/queue_depth/{actor,gpu}` (from invoke submit/start
//    times), `run<r>/pending_trajectories` and
//    `run<r>/gradient_queue_depth` (the analyzer's queue deltas).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace stellaris::report {

/// Render `ledger_lines` (one JSON object per line; blank lines ignored) as
/// `{"traceEvents":[...]}`. Throws stellaris::Error naming the line on
/// malformed JSON or a bad integer field.
void write_chrome_trace(const std::vector<std::string>& ledger_lines,
                        std::ostream& os);

}  // namespace stellaris::report
