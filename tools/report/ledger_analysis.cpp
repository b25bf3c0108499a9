#include "tools/report/ledger_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "obs/ledger.hpp"
#include "util/error.hpp"
#include "util/percentile.hpp"

namespace stellaris::report {

using minijson::Value;

double num_or(const Value& obj, const std::string& key, double fallback) {
  if (!obj.has(key)) return fallback;
  const Value& v = obj.at(key);
  return v.kind == Value::Kind::kNumber ? v.num : fallback;
}

std::string str_or(const Value& obj, const std::string& key,
                   const std::string& fallback) {
  if (!obj.has(key)) return fallback;
  const Value& v = obj.at(key);
  return v.kind == Value::Kind::kString ? v.str : fallback;
}

std::uint64_t id_or(const Value& obj, const std::string& key,
                    std::uint64_t fallback) {
  if (!obj.has(key)) return fallback;
  // 2^53: every integer up to here is exact in a double, and the cast
  // below is defined for every value that passes.
  constexpr double kMaxExact = 9007199254740992.0;
  const Value& v = obj.at(key);
  if (v.kind != Value::Kind::kNumber || !std::isfinite(v.num) ||
      v.num < 0.0 || v.num > kMaxExact || v.num != std::floor(v.num))
    throw Error("field \"" + key + "\" is not an integer in [0, 2^53]");
  return static_cast<std::uint64_t>(v.num);
}

void for_each_event(const std::vector<std::string>& lines,
                    const std::function<void(const LedgerLine&)>& fn) {
  LedgerLine e;
  for (const auto& line : lines) {
    ++e.lineno;
    if (line.find_first_not_of(" \t\r\n") == std::string::npos) continue;
    try {
      e.ev = minijson::parse(line);
      if (!e.ev.is_object() || !e.ev.has("ev")) continue;
      e.type = str_or(e.ev, "ev", "");
      e.run = id_or(e.ev, "run", 0);
      e.t = num_or(e.ev, "t", 0.0);
      fn(e);
    } catch (const std::exception& ex) {
      throw Error("ledger line " + std::to_string(e.lineno) + ": " +
                  ex.what());
    }
  }
}

bool add_queue_delta(const LedgerLine& e, QueueDeltas& d) {
  const Value& ev = e.ev;
  if (e.type == "traj") {
    d.pending_traj[e.t] += 1;
  } else if (e.type == "learner_claim") {
    if (ev.has("trajs"))
      d.pending_traj[e.t] -= static_cast<long>(ev.at("trajs").arr.size());
  } else if (e.type == "traj_requeue") {
    if (ev.has("trajs"))
      d.pending_traj[e.t] += static_cast<long>(ev.at("trajs").arr.size());
  } else if (e.type == "grad") {
    d.grad_queue[e.t] += 1;
  } else if (e.type == "agg_begin") {
    if (ev.has("group"))
      d.grad_queue[e.t] -= static_cast<long>(ev.at("group").arr.size());
  } else {
    return false;
  }
  return true;
}

namespace {

// Nearest-rank quantiles come from the shared util/percentile.hpp helper
// (the same definition the serving tier's SLO monitor uses), so offline
// reports and the in-process serve metrics can never disagree on what a
// "p99" means.
using stellaris::nearest_rank_sorted;

struct InvokeRecord {
  std::uint64_t lid = 0;
  std::string kind;
  double submit = 0.0;
  double end = 0.0;
  double compute_s = 0.0;
  double billed_s = 0.0;
  double cost_usd = 0.0;
  bool ok = true;
  std::string error;
  double straggler_mult = 1.0;
};

/// Serving-tier per-tenant accumulator (serve_* events).
struct ServeTenantAcc {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t batches = 0;
  double cost_usd = 0.0;
  std::uint64_t canary_starts = 0;
  std::uint64_t promotions = 0;
  std::uint64_t rollbacks = 0;
  std::vector<double> latencies;
};

/// Per-run event accumulator, filled on the single pass over the lines.
struct RunAccumulator {
  std::size_t events = 0;
  double max_t = 0.0;
  double run_end_t = -1.0;
  std::vector<InvokeRecord> invokes;
  QueueDeltas queues;
  std::map<std::uint64_t, std::vector<double>> staleness_by_version;
  std::uint64_t retries = 0;
  std::uint64_t giveups = 0;
  std::uint64_t reclaims = 0;
  std::uint64_t rounds = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t restores = 0;
  std::uint64_t dropped_gradients = 0;
  std::uint64_t faults_injected = 0;
  // std::map keeps tenants in ascending-name order for the report.
  std::map<std::string, ServeTenantAcc> serve_tenants;
  std::uint64_t serve_scale_ups = 0;
  std::uint64_t serve_scale_downs = 0;
  std::uint64_t serve_peak_workers = 0;
};

StageBreakdown sweep_stages(const RunAccumulator& acc, double t_end) {
  // Interval deltas per in-flight category, then one priority sweep over
  // the union of all boundaries in [0, t_end].
  std::map<double, long> actor_d, learner_d, param_d;
  for (const auto& inv : acc.invokes) {
    std::map<double, long>* d = nullptr;
    if (inv.kind == "actor")
      d = &actor_d;
    else if (inv.kind == "learner")
      d = &learner_d;
    else if (inv.kind == "parameter")
      d = &param_d;
    if (!d) continue;
    // In-flight from submission (queue time is part of the stage: a queued
    // learner is still "learning" on the critical path) to settle.
    if (inv.end <= inv.submit) continue;
    (*d)[inv.submit] += 1;
    (*d)[inv.end] -= 1;
  }

  std::vector<double> bounds;
  bounds.push_back(0.0);
  bounds.push_back(t_end);
  auto add_bounds = [&](const std::map<double, long>& d) {
    for (const auto& [t, _] : d) bounds.push_back(t);
  };
  add_bounds(actor_d);
  add_bounds(learner_d);
  add_bounds(param_d);
  add_bounds(acc.queues.pending_traj);
  add_bounds(acc.queues.grad_queue);
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  StageBreakdown out;
  out.total = t_end;
  long actors = 0, learners = 0, params = 0, trajs = 0, grads = 0;
  auto apply = [](std::map<double, long>& d, double t, long& count) {
    auto it = d.find(t);
    if (it != d.end()) count += it->second;
  };
  // Mutable copies for find() — the maps are small relative to the sweep.
  std::map<double, long> traj_d = acc.queues.pending_traj;
  std::map<double, long> grad_d = acc.queues.grad_queue;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const double t = bounds[i];
    apply(actor_d, t, actors);
    apply(learner_d, t, learners);
    apply(param_d, t, params);
    apply(traj_d, t, trajs);
    apply(grad_d, t, grads);
    if (t >= t_end || i + 1 >= bounds.size()) break;
    const double hi = std::min(bounds[i + 1], t_end);
    const double lo = std::max(t, 0.0);
    const double len = hi - lo;
    if (len <= 0.0) continue;
    // Priority classification — exactly one stage per elementary interval.
    if (params > 0)
      out.aggregate += len;
    else if (grads > 0)
      out.aggregate_wait += len;
    else if (learners > 0)
      out.learn += len;
    else if (trajs > 0)
      out.cache_wait += len;
    else if (actors > 0)
      out.rollout += len;
    else
      out.idle += len;
  }
  return out;
}

RunReport finalize(std::uint64_t run, const RunAccumulator& acc,
                   const AnalysisOptions& opts) {
  RunReport rep;
  rep.run = run;
  rep.events = acc.events;
  rep.t_end = acc.run_end_t >= 0.0 ? acc.run_end_t : acc.max_t;
  rep.retries = acc.retries;
  rep.giveups = acc.giveups;
  rep.reclaims = acc.reclaims;
  rep.rounds = acc.rounds;
  rep.checkpoints = acc.checkpoints;
  rep.restores = acc.restores;
  rep.dropped_gradients = acc.dropped_gradients;
  rep.faults_injected = acc.faults_injected;

  rep.stages = sweep_stages(acc, rep.t_end);

  for (const auto& [version, samples] : acc.staleness_by_version) {
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    StalenessByVersion s;
    s.version = version;
    s.count = sorted.size();
    s.p50 = nearest_rank_sorted(sorted, 0.50);
    s.p99 = nearest_rank_sorted(sorted, 0.99);
    s.max = sorted.empty() ? 0.0 : sorted.back();
    double sum = 0.0;
    for (double v : sorted) sum += v;
    s.mean = sorted.empty() ? 0.0 : sum / static_cast<double>(sorted.size());
    rep.staleness.push_back(s);
  }

  // Stragglers: per-kind median compute time over all invocations, then
  // flag injected (straggler_mult) and statistical (> factor × median).
  std::map<std::string, std::vector<double>> compute_by_kind;
  for (const auto& inv : acc.invokes)
    compute_by_kind[inv.kind].push_back(inv.compute_s);
  std::map<std::string, double> median_by_kind;
  for (auto& [kind, xs] : compute_by_kind) {
    std::sort(xs.begin(), xs.end());
    median_by_kind[kind] = nearest_rank_sorted(xs, 0.50);
  }
  for (const auto& inv : acc.invokes) {
    const double median = median_by_kind[inv.kind];
    const double ratio = median > 0.0 ? inv.compute_s / median : 0.0;
    const bool injected = inv.straggler_mult > 1.0;
    const bool statistical =
        median > 0.0 && inv.compute_s > opts.straggler_factor * median;
    if (!injected && !statistical) continue;
    Straggler s;
    s.lid = inv.lid;
    s.kind = inv.kind;
    s.compute_s = inv.compute_s;
    s.ratio = ratio;
    s.injected = injected;
    rep.stragglers.push_back(s);
  }
  std::sort(rep.stragglers.begin(), rep.stragglers.end(),
            [](const Straggler& a, const Straggler& b) {
              if (a.ratio != b.ratio) return a.ratio > b.ratio;
              return a.lid < b.lid;
            });

  std::map<std::string, WastedCost> wasted;
  for (const auto& inv : acc.invokes) {
    ++rep.invocations;
    rep.total_cost_usd += inv.cost_usd;
    if (inv.ok) continue;
    ++rep.failed_invocations;
    rep.wasted_cost_usd += inv.cost_usd;
    rep.wasted_seconds += inv.billed_s;
    WastedCost& w = wasted[inv.error];
    w.error = inv.error;
    ++w.count;
    w.billed_s += inv.billed_s;
    w.cost_usd += inv.cost_usd;
  }
  for (const auto& [_, w] : wasted) rep.wasted.push_back(w);

  for (const auto& [name, st] : acc.serve_tenants) {
    ServeTenantSummary s;
    s.tenant = name;
    s.completed = st.completed;
    s.failed = st.failed;
    s.rejected = st.rejected;
    s.batches = st.batches;
    s.mean_batch =
        st.batches > 0
            ? static_cast<double>(st.completed + st.failed) /
                  static_cast<double>(st.batches)
            : 0.0;
    std::vector<double> sorted = st.latencies;
    std::sort(sorted.begin(), sorted.end());
    s.p50_s = nearest_rank_sorted(sorted, 0.50);
    s.p99_s = nearest_rank_sorted(sorted, 0.99);
    s.p999_s = nearest_rank_sorted(sorted, 0.999);
    s.cost_usd = st.cost_usd;
    s.canary_starts = st.canary_starts;
    s.promotions = st.promotions;
    s.rollbacks = st.rollbacks;
    rep.serve.tenants.push_back(std::move(s));
  }
  rep.serve.scale_ups = acc.serve_scale_ups;
  rep.serve.scale_downs = acc.serve_scale_downs;
  rep.serve.peak_workers = acc.serve_peak_workers;
  return rep;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::string pct(double part, double total) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%5.1f%%",
                total > 0.0 ? 100.0 * part / total : 0.0);
  return buf;
}

}  // namespace

std::vector<RunReport> analyze_ledger(const std::vector<std::string>& lines,
                                      const AnalysisOptions& opts) {
  std::map<std::uint64_t, RunAccumulator> runs;
  for_each_event(lines, [&](const LedgerLine& line) {
    const Value& ev = line.ev;
    const std::string& type = line.type;
    const double t = line.t;
    RunAccumulator& acc = runs[line.run];
    ++acc.events;
    acc.max_t = std::max(acc.max_t, t);
    if (add_queue_delta(line, acc.queues)) return;

    if (type == "run_end") {
      acc.run_end_t = t;
    } else if (type == "invoke") {
      InvokeRecord inv;
      inv.lid = id_or(ev, "lid", 0);
      inv.kind = str_or(ev, "kind", "");
      inv.submit = num_or(ev, "submit", t);
      inv.end = t;
      inv.compute_s = num_or(ev, "compute_s", 0.0);
      inv.billed_s = num_or(ev, "billed_s", 0.0);
      inv.cost_usd = num_or(ev, "cost_usd", 0.0);
      inv.ok = !ev.has("ok") || ev.at("ok").b;
      inv.error = str_or(ev, "error", "");
      inv.straggler_mult = num_or(ev, "straggler_mult", 1.0);
      acc.invokes.push_back(std::move(inv));
    } else if (type == "agg_end") {
      auto& samples = acc.staleness_by_version[id_or(ev, "version", 0)];
      if (ev.has("staleness"))
        for (const auto& v : ev.at("staleness").arr)
          samples.push_back(v.number());
    } else if (type == "serve_batch") {
      ServeTenantAcc& st = acc.serve_tenants[str_or(ev, "tenant", "")];
      ++st.batches;
      st.cost_usd += num_or(ev, "cost_usd", 0.0);
      const std::uint64_t n = id_or(ev, "n", 0);
      const bool ok = !ev.has("ok") || ev.at("ok").b;
      if (ok) {
        st.completed += n;
        if (ev.has("lat"))
          for (const auto& v : ev.at("lat").arr)
            st.latencies.push_back(v.number());
      } else {
        st.failed += n;
      }
    } else if (type == "serve_reject") {
      ++acc.serve_tenants[str_or(ev, "tenant", "")].rejected;
    } else if (type == "serve_start") {
      acc.serve_peak_workers =
          std::max(acc.serve_peak_workers, id_or(ev, "workers", 0));
    } else if (type == "serve_scale") {
      const std::uint64_t from = id_or(ev, "from", 0);
      const std::uint64_t to = id_or(ev, "to", 0);
      if (to > from)
        ++acc.serve_scale_ups;
      else if (to < from)
        ++acc.serve_scale_downs;
      acc.serve_peak_workers = std::max(acc.serve_peak_workers, to);
    } else if (type == "serve_rollout") {
      ServeTenantAcc& st = acc.serve_tenants[str_or(ev, "tenant", "")];
      const std::string action = str_or(ev, "action", "");
      if (action == "start")
        ++st.canary_starts;
      else if (action == "promote")
        ++st.promotions;
      else if (action == "rollback")
        ++st.rollbacks;
    } else if (type == "retry") {
      ++acc.retries;
    } else if (type == "giveup") {
      ++acc.giveups;
    } else if (type == "reclaim") {
      ++acc.reclaims;
    } else if (type == "round") {
      ++acc.rounds;
    } else if (type == "ckpt") {
      ++acc.checkpoints;
    } else if (type == "restore") {
      ++acc.restores;
      acc.dropped_gradients += id_or(ev, "dropped", 0);
    } else if (type == "fault_injected") {
      ++acc.faults_injected;
    }
    // ledger-schema:ignore run_begin — run metadata (env/algo/config echo)
    // for humans reading the raw JSONL; the report aggregates nothing from
    // it, and stellaris_analyze's ledger-schema pass knows that on purpose.
  });

  std::vector<RunReport> reports;
  reports.reserve(runs.size());
  for (const auto& [run, acc] : runs)
    reports.push_back(finalize(run, acc, opts));
  return reports;
}

std::vector<std::string> read_ledger_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open ledger: " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void print_report(std::ostream& os, const RunReport& r) {
  os << "=== run " << r.run << " ===\n";
  os << "events: " << r.events << "   rounds: " << r.rounds
     << "   virtual run time: " << fmt(r.t_end) << " s\n";

  os << "\ncritical-path breakdown (priority: aggregate > aggregate_wait > "
        "learn > cache_wait > rollout > idle):\n";
  const StageBreakdown& s = r.stages;
  auto stage = [&](const char* name, double v) {
    os << "  " << name << std::string(16 - std::min<std::size_t>(
                                               16, std::string(name).size()),
                                      ' ')
       << fmt(v) << " s  " << pct(v, s.total) << "\n";
  };
  stage("rollout", s.rollout);
  stage("cache_wait", s.cache_wait);
  stage("learn", s.learn);
  stage("aggregate_wait", s.aggregate_wait);
  stage("aggregate", s.aggregate);
  stage("idle", s.idle);
  stage("total", s.sum());

  os << "\nstaleness per policy version (nearest-rank quantiles):\n";
  if (r.staleness.empty()) os << "  (no aggregations recorded)\n";
  for (const auto& v : r.staleness)
    os << "  v" << v.version << ": n=" << v.count << " p50=" << v.p50
       << " p99=" << v.p99 << " mean=" << fmt(v.mean) << " max=" << v.max
       << "\n";

  os << "\nstragglers (injected, or compute_s above the kind median):\n";
  if (r.stragglers.empty()) os << "  (none)\n";
  for (const auto& st : r.stragglers)
    os << "  lid=" << st.lid << " kind=" << st.kind
       << " compute_s=" << fmt(st.compute_s) << " ratio=" << fmt(st.ratio)
       << (st.injected ? " [injected]" : "") << "\n";

  if (!r.serve.tenants.empty()) {
    os << "\nserving tier (per tenant; nearest-rank latency quantiles):\n";
    for (const auto& t : r.serve.tenants) {
      os << "  " << t.tenant << ": completed=" << t.completed
         << " failed=" << t.failed << " rejected=" << t.rejected
         << " batches=" << t.batches << " mean_batch=" << fmt(t.mean_batch)
         << "\n    p50=" << fmt(t.p50_s) << " s p99=" << fmt(t.p99_s)
         << " s p999=" << fmt(t.p999_s) << " s cost=$" << fmt(t.cost_usd);
      if (t.canary_starts > 0)
        os << " canaries=" << t.canary_starts
           << " promotions=" << t.promotions
           << " rollbacks=" << t.rollbacks;
      os << "\n";
    }
    os << "  autoscaler: peak_workers=" << r.serve.peak_workers
       << " scale_ups=" << r.serve.scale_ups
       << " scale_downs=" << r.serve.scale_downs << "\n";
  }

  os << "\nwasted-cost attribution (failed invocations):\n";
  if (r.wasted.empty()) os << "  (none)\n";
  for (const auto& w : r.wasted)
    os << "  " << w.error << ": " << w.count << " invocations, "
       << fmt(w.billed_s) << " s billed, $" << fmt(w.cost_usd) << "\n";
  os << "  total: " << r.failed_invocations << "/" << r.invocations
     << " invocations failed, $" << fmt(r.wasted_cost_usd) << " of $"
     << fmt(r.total_cost_usd) << " wasted (" << r.retries << " retries, "
     << r.giveups << " giveups, " << r.reclaims << " reclaims)\n";

  if (r.checkpoints || r.restores || r.faults_injected)
    os << "\nrecovery: " << r.checkpoints << " checkpoints, " << r.restores
       << " restores (" << r.dropped_gradients << " gradients dropped), "
       << r.faults_injected << " faults injected\n";
}

void write_report_json(std::ostream& os, const RunReport& r) {
  using obs::LedgerEvent;
  const auto n = [](double v) { return LedgerEvent::render_number(v); };
  os << "{\"run\":" << r.run << ",\"events\":" << r.events
     << ",\"rounds\":" << r.rounds << ",\"t_end\":" << n(r.t_end)
     << ",\"stages\":{\"rollout\":" << n(r.stages.rollout)
     << ",\"cache_wait\":" << n(r.stages.cache_wait)
     << ",\"learn\":" << n(r.stages.learn)
     << ",\"aggregate_wait\":" << n(r.stages.aggregate_wait)
     << ",\"aggregate\":" << n(r.stages.aggregate)
     << ",\"idle\":" << n(r.stages.idle) << "}";
  os << ",\"staleness\":[";
  for (std::size_t i = 0; i < r.staleness.size(); ++i) {
    const auto& v = r.staleness[i];
    os << (i ? "," : "") << "{\"version\":" << v.version
       << ",\"count\":" << v.count << ",\"p50\":" << n(v.p50)
       << ",\"p99\":" << n(v.p99) << ",\"mean\":" << n(v.mean)
       << ",\"max\":" << n(v.max) << "}";
  }
  os << "],\"stragglers\":[";
  for (std::size_t i = 0; i < r.stragglers.size(); ++i) {
    const auto& st = r.stragglers[i];
    os << (i ? "," : "") << "{\"lid\":" << st.lid
       << ",\"kind\":" << LedgerEvent::quote(st.kind)
       << ",\"compute_s\":" << n(st.compute_s) << ",\"ratio\":" << n(st.ratio)
       << ",\"injected\":" << (st.injected ? "true" : "false") << "}";
  }
  os << "],\"wasted\":[";
  for (std::size_t i = 0; i < r.wasted.size(); ++i) {
    const auto& w = r.wasted[i];
    os << (i ? "," : "") << "{\"error\":" << LedgerEvent::quote(w.error)
       << ",\"count\":" << w.count << ",\"billed_s\":" << n(w.billed_s)
       << ",\"cost_usd\":" << n(w.cost_usd) << "}";
  }
  os << "],\"serve\":{\"tenants\":[";
  for (std::size_t i = 0; i < r.serve.tenants.size(); ++i) {
    const auto& t = r.serve.tenants[i];
    os << (i ? "," : "") << "{\"tenant\":" << LedgerEvent::quote(t.tenant)
       << ",\"completed\":" << t.completed << ",\"failed\":" << t.failed
       << ",\"rejected\":" << t.rejected << ",\"batches\":" << t.batches
       << ",\"mean_batch\":" << n(t.mean_batch)
       << ",\"p50_s\":" << n(t.p50_s) << ",\"p99_s\":" << n(t.p99_s)
       << ",\"p999_s\":" << n(t.p999_s) << ",\"cost_usd\":" << n(t.cost_usd)
       << ",\"canary_starts\":" << t.canary_starts
       << ",\"promotions\":" << t.promotions
       << ",\"rollbacks\":" << t.rollbacks << "}";
  }
  os << "],\"scale_ups\":" << r.serve.scale_ups
     << ",\"scale_downs\":" << r.serve.scale_downs
     << ",\"peak_workers\":" << r.serve.peak_workers << "}";
  os << ",\"invocations\":" << r.invocations
     << ",\"failed_invocations\":" << r.failed_invocations
     << ",\"total_cost_usd\":" << n(r.total_cost_usd)
     << ",\"wasted_cost_usd\":" << n(r.wasted_cost_usd)
     << ",\"wasted_seconds\":" << n(r.wasted_seconds)
     << ",\"retries\":" << r.retries << ",\"giveups\":" << r.giveups
     << ",\"reclaims\":" << r.reclaims
     << ",\"checkpoints\":" << r.checkpoints
     << ",\"restores\":" << r.restores
     << ",\"dropped_gradients\":" << r.dropped_gradients
     << ",\"faults_injected\":" << r.faults_injected << "}\n";
}

}  // namespace stellaris::report
