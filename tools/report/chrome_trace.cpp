#include "tools/report/chrome_trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <ostream>

#include "obs/ledger.hpp"
#include "tools/report/ledger_analysis.hpp"

namespace stellaris::report {

namespace {

using minijson::Value;
using obs::LedgerEvent;

constexpr double kMicros = 1e6;
/// Fallback for optional numeric args: an absent or null ledger value
/// renders as null.
constexpr double kAbsent = std::numeric_limits<double>::quiet_NaN();

/// Trace numbers render at %.9g (null for non-finite: JSON has no NaN/Inf).
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// An event's `args` object as a JSON fragment.
class Args {
 public:
  Args& id(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Args& num(const char* key, double v) { return raw(key, number(v)); }
  Args& str(const char* key, const std::string& v) {
    return raw(key, LedgerEvent::quote(v));
  }
  Args& flag(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  const std::string& json() const { return json_; }

 private:
  Args& raw(const char* key, const std::string& value) {
    if (!json_.empty()) json_ += ',';
    json_ += LedgerEvent::quote(key) + ':' + value;
    return *this;
  }
  std::string json_;
};

/// Trace events in emission order; each track gets a tid and a
/// `thread_name` event the first time it is used.
class TraceWriter {
 public:
  std::uint32_t track(const std::string& name) {
    const auto next = static_cast<std::uint32_t>(tids_.size() + 1);
    auto [it, inserted] = tids_.emplace(name, next);
    if (inserted)
      events_.push_back(head("thread_name", 'M', it->second, nullptr) +
                        ",\"args\":{\"name\":" + LedgerEvent::quote(name) +
                        "}}");
    return it->second;
  }

  void span(const std::string& track_name, const std::string& name,
            const std::string& cat, double t0_s, double t1_s,
            const Args& args = {}) {
    push(head(name, 'X', track(track_name), &cat) +
             ",\"ts\":" + number(t0_s * kMicros) +
             ",\"dur\":" + number((t1_s - t0_s) * kMicros),
         args);
  }

  void instant(const std::string& track_name, const std::string& name,
               const std::string& cat, double t_s, const Args& args) {
    push(head(name, 'i', track(track_name), &cat) +
             ",\"ts\":" + number(t_s * kMicros) + ",\"s\":\"t\"",
         args);
  }

  /// One counter sample per timestamp: the running sum of `deltas`.
  void counter(const std::string& name, const std::map<double, long>& deltas) {
    long depth = 0;
    for (const auto& [t, d] : deltas) {
      depth += d;
      events_.push_back(head(name, 'C', 0, nullptr) +
                        ",\"ts\":" + number(t * kMicros) +
                        ",\"args\":{\"value\":" +
                        number(static_cast<double>(depth)) + "}}");
    }
  }

  void write(std::ostream& os) const {
    os << "{\"traceEvents\":[\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"args\":{\"name\":\"stellaris\"}}";
    for (const auto& ev : events_) os << ",\n" << ev;
    os << "\n]}\n";
  }

 private:
  static std::string head(const std::string& name, char ph,
                          std::uint32_t tid, const std::string* cat) {
    std::string out = "{\"name\":" + LedgerEvent::quote(name) +
                      ",\"ph\":\"" + ph +
                      "\",\"pid\":1,\"tid\":" + std::to_string(tid);
    if (cat) out += ",\"cat\":" + LedgerEvent::quote(*cat);
    return out;
  }

  void push(std::string ev, const Args& args) {
    if (!args.json().empty()) ev += ",\"args\":{" + args.json() + '}';
    ev += '}';
    events_.push_back(std::move(ev));
  }

  std::map<std::string, std::uint32_t> tids_;
  std::vector<std::string> events_;
};

/// Per-run rendering state.
struct RunState {
  std::string prefix;  ///< "run<id>/"
  bool begun = false;
  double begin_t = 0.0;
  Args train_args;
  double last_round_t = 0.0;
  QueueDeltas queues;
  std::map<double, long> actor_queue;  ///< invocations waiting for a slot
  std::map<double, long> gpu_queue;
};

}  // namespace

void write_chrome_trace(const std::vector<std::string>& ledger_lines,
                        std::ostream& os) {
  TraceWriter out;
  std::map<std::uint64_t, RunState> runs;
  for_each_event(ledger_lines, [&](const LedgerLine& line) {
    const Value& ev = line.ev;
    const std::string& type = line.type;
    const double t = line.t;
    RunState& run = runs[line.run];
    if (run.prefix.empty()) run.prefix = "run" + std::to_string(line.run) + "/";
    const std::string trainer = run.prefix + "trainer";
    add_queue_delta(line, run.queues);

    if (type == "invoke") {
      const std::string kind = str_or(ev, "kind", "");
      const bool actor_pool = str_or(ev, "pool", "") == "actor";
      const bool cache_tier = str_or(ev, "tier", "cache") == "cache";
      const bool cold = ev.has("cold") && ev.at("cold").b;
      const double submit = num_or(ev, "submit", t);
      const double start = num_or(ev, "start", t);
      const std::string track = run.prefix + (actor_pool ? "actors/" : "gpu/") +
                                std::to_string(id_or(ev, "container", 0));
      Args args;
      args.flag("cold", cold)
          .num("queue_wait_s", num_or(ev, "queue_s", kAbsent))
          .num("billed_s", num_or(ev, "billed_s", kAbsent))
          .num("cost_usd", num_or(ev, "cost_usd", kAbsent))
          .id("payload_in_bytes", id_or(ev, "bytes_in", 0))
          .id("payload_out_bytes", id_or(ev, "bytes_out", 0));
      if (ev.has("error")) args.str("error", str_or(ev, "error", ""));
      out.span(track, kind, kind, start, t, args);
      // Nested phases in execution order, clipped to the settle time: the
      // phases past a crash or reclaim never ran.
      double phase_t = start + num_or(ev, "overhead_s", 0.0);
      const auto phase = [&](const char* name, double dur) {
        const double end = std::min(phase_t + dur, t);
        if (dur > 0.0 && end > phase_t)
          out.span(track, name, "phase", phase_t, end);
        phase_t += dur;
      };
      phase(cold ? "cold_start" : "warm_start",
            num_or(ev, "start_latency_s", 0.0));
      phase(cache_tier ? "cache_read" : "data_in",
            num_or(ev, "transfer_in_s", 0.0));
      phase("compute", num_or(ev, "compute_s", 0.0));
      phase(kind == "parameter" ? "policy_broadcast"
            : cache_tier        ? "cache_write"
                                : "data_out",
            num_or(ev, "transfer_out_s", 0.0));
      auto& queue = actor_pool ? run.actor_queue : run.gpu_queue;
      queue[submit] += 1;
      queue[start] -= 1;
    } else if (type == "run_begin") {
      out.track(trainer);
      run.begun = true;
      run.begin_t = t;
      run.last_round_t = t;
      run.train_args = Args()
                           .str("env", str_or(ev, "env", ""))
                           .id("actors", id_or(ev, "actors", 0))
                           .id("rounds", id_or(ev, "rounds", 0));
    } else if (type == "run_end") {
      if (run.begun)
        out.span(trainer, "train", "trainer", run.begin_t, t, run.train_args);
    } else if (type == "round") {
      Args args;
      args.id("round", id_or(ev, "round", 0))
          .id("group_size", id_or(ev, "group_size", 0))
          .num("mean_staleness", num_or(ev, "mean_staleness", kAbsent))
          .num("kl", num_or(ev, "kl", kAbsent));
      if (ev.has("reward")) args.num("reward", num_or(ev, "reward", kAbsent));
      out.span(run.prefix + "trainer/rounds", "round", "round",
               run.last_round_t, t, args);
      run.last_round_t = t;
    } else if (type == "traj") {
      out.instant(trainer, "traj_published", "trainer", t,
                  Args()
                      .id("traj_id", id_or(ev, "traj_id", 0))
                      .id("actor", id_or(ev, "actor", 0))
                      .id("policy_version", id_or(ev, "policy_version", 0)));
    } else if (type == "grad") {
      out.instant(trainer, "grad_enqueued", "trainer", t,
                  Args()
                      .id("learner_id", id_or(ev, "learner_id", 0))
                      .id("pulled_version", id_or(ev, "pulled_version", 0))
                      .id("staleness_now", id_or(ev, "staleness", 0)));
    } else if (type == "ckpt") {
      out.instant(trainer, "checkpoint", "fault", t,
                  Args().id("version", id_or(ev, "version", 0)));
    } else if (type == "restore") {
      out.instant(trainer, "restore", "fault", t,
                  Args()
                      .id("version", id_or(ev, "version", 0))
                      .id("dropped_gradients", id_or(ev, "dropped", 0)));
    } else if (type == "retry") {
      out.instant(run.prefix + "faults", "retry", "fault", t,
                  Args()
                      .str("kind", str_or(ev, "kind", ""))
                      .str("error", str_or(ev, "error", ""))
                      .id("retry", id_or(ev, "attempt", 0))
                      .num("backoff_s", num_or(ev, "backoff_s", kAbsent)));
    } else if (type == "reclaim") {
      out.instant(run.prefix + "faults", "vm_reclaim", "fault", t,
                  Args()
                      .str("vm", str_or(ev, "vm", ""))
                      .str("pool", str_or(ev, "pool", ""))
                      .id("killed_invocations", id_or(ev, "killed", 0)));
    }
  });
  for (const auto& [_, run] : runs) {
    out.counter(run.prefix + "queue_depth/actor", run.actor_queue);
    out.counter(run.prefix + "queue_depth/gpu", run.gpu_queue);
    out.counter(run.prefix + "pending_trajectories", run.queues.pending_traj);
    out.counter(run.prefix + "gradient_queue_depth", run.queues.grad_queue);
  }
  out.write(os);
}

}  // namespace stellaris::report
