// stackbench: the measuring half of the stack benchmark (see README.md).
//
// One process per benchmark run. It reads a generated workload config as
// JSON on stdin, runs it, and prints one JSON object of raw samples on
// stdout; run.py derives every metric from those samples. Two modes:
//
//   measure  an untimed warm-up run of every variant (the workload at one
//            seed), timed set-ups alone, then timed (set-up, run) reps that
//            cycle through the variants until `seconds` have passed.
//            Capture stays off. Every run reports the exact result fields
//            that run.py digests.
//   trace    the first variant under the virtual driver and the concurrent
//            driver at 2 and 4 threads, once more with ledger and time
//            series capture on, then the benchmark's own timed calls into
//            each layer's public functions at the workload's shapes.
//
// Nothing here reaches inside the program: every number is either a wall
// time around a public call or a count the run already publishes
// (TrainResult, ServeResult, obs::metrics() counters, the ledger).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/sync_trainer.hpp"
#include "cache/distributed_cache.hpp"
#include "core/learner_update.hpp"
#include "core/parameter_function.hpp"
#include "core/policy_io.hpp"
#include "core/stellaris_trainer.hpp"
#include "core/worker_context.hpp"
#include "envs/vec_env.hpp"
#include "nn/actor_critic.hpp"
#include "obs/obs.hpp"
#include "rl/actor.hpp"
#include "rl/vec_actor.hpp"
#include "serve/serve_engine.hpp"
#include "sim/driver.hpp"
#include "sim/engine.hpp"
#include "tensor/kernel_config.hpp"
#include "tools/report/ledger_analysis.hpp"
#include "util/mini_json.hpp"
#include "util/rng.hpp"

using namespace stellaris;

namespace {

using Clock = std::chrono::steady_clock;

// Harness constants, the same for every workload.
constexpr std::size_t kDriverThreads = 4;  ///< concurrent driver's workers
constexpr std::size_t kMinReps = 3;        ///< timed reps per measured run
constexpr std::size_t kSetupReps = 20;     ///< set-ups timed alone, at least
constexpr double kSetupBudgetS = 1.0;      ///< ... and for at least this long
/// Serve forward rows on workloads that serve nothing.
constexpr std::size_t kServeBatchFallback = 8;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t as_size(const minijson::Value& v, const std::string& key) {
  return static_cast<std::size_t>(v.at(key).number());
}

std::uint64_t as_u64(const minijson::Value& v, const std::string& key) {
  return static_cast<std::uint64_t>(v.at(key).number());
}

std::uint64_t counter(const char* name) {
  return obs::metrics().counter(name).value();
}

// ---------------------------------------------------------------------------
// Workload configs, exactly as run.py generated them.

core::TrainConfig train_config(const minijson::Value& t) {
  core::TrainConfig cfg;
  cfg.env_name = t.at("env").string();
  cfg.seed = as_u64(t, "seed");
  cfg.rounds = as_size(t, "rounds");
  cfg.num_actors = as_size(t, "num_actors");
  cfg.horizon = as_size(t, "horizon");
  cfg.envs_per_actor = as_size(t, "envs_per_actor");
  cfg.trajs_per_learner = as_size(t, "trajs_per_learner");
  cfg.network_width = as_size(t, "network_width");
  cfg.eval_episodes = as_size(t, "eval_episodes");
  cfg.eval_interval = as_size(t, "eval_interval");
  cfg.cluster = serverless::ClusterSpec::regular_small();
  return cfg;
}

serve::TenantConfig tenant_config(const minijson::Value& t) {
  serve::TenantConfig tc;
  tc.name = t.at("name").string();
  tc.discrete = t.at("discrete").b;
  tc.obs_dim = as_size(t, "obs_dim");
  tc.act_dim = as_size(t, "act_dim");
  tc.hidden = as_size(t, "hidden");
  tc.batch.max_batch = as_size(t, "max_batch");
  tc.batch.max_wait_s = t.at("max_wait_s").number();
  tc.traffic.rate_per_s = t.at("rate_per_s").number();
  tc.traffic.burst_rate_per_s = t.at("burst_rate_per_s").number();
  tc.traffic.burst_start_s = t.at("burst_start_s").number();
  tc.traffic.burst_end_s = t.at("burst_end_s").number();
  tc.traffic.duration_s = t.at("duration_s").number();
  return tc;
}

struct ServeSpec {
  serve::ServeConfig cfg;
  std::vector<std::uint64_t> policy_seeds;  ///< one per tenant
};

ServeSpec serve_spec(const minijson::Value& s) {
  ServeSpec spec;
  for (const auto& t : s.at("tenants").arr) {
    spec.cfg.tenants.push_back(tenant_config(t));
    spec.policy_seeds.push_back(as_u64(t, "policy_seed"));
  }
  spec.cfg.worker_capacity = as_size(s, "worker_capacity");
  spec.cfg.autoscale.max_workers = as_size(s, "max_workers");
  spec.cfg.autoscale.queue_per_worker = s.at("queue_per_worker").number();
  spec.cfg.autoscale.eval_period_s = s.at("autoscale_period_s").number();
  spec.cfg.seed = as_u64(s, "seed");
  return spec;
}

// ---------------------------------------------------------------------------
// One run's outputs: the exact fields the digest covers, the end-to-end
// quantities, and the counts the run publishes.

struct Outcome {
  std::vector<std::pair<std::string, double>> digest;
  double sim_time_s = 0.0;
  double sim_cost_usd = 0.0;
  double final_reward = 0.0;  ///< training only
  double p99_ms = 0.0;
  double steps = 0.0;     ///< env steps (training) or engine events (serving)
  double requests = 0.0;  ///< completed invocations or served requests
  std::map<std::string, double> counts;
  std::vector<double> staleness;  ///< per-gradient staleness samples
  double mean_group = 0.0;        ///< mean gradients per aggregation
  double mean_batch = 0.0;        ///< mean requests per serve batch
};

void add_train_digest(Outcome& o, const core::TrainResult& r) {
  auto& d = o.digest;
  d.emplace_back("total_time_s", r.total_time_s);
  d.emplace_back("total_cost_usd", r.total_cost_usd);
  d.emplace_back("final_reward", r.final_reward);
  d.emplace_back("best_reward", r.best_reward);
  for (const auto& rec : r.rounds) {
    std::string p = "round";
    p += std::to_string(rec.round);
    p += '.';
    d.emplace_back(p + "time_s", rec.time_s);
    d.emplace_back(p + "reward", rec.evaluated ? rec.reward : 0.0);
    d.emplace_back(p + "kl", rec.kl);
  }
}

/// Counts every workload reports, read after the run from the process-wide
/// metrics registry (reset before the run).
void add_registry_counts(Outcome& o) {
  auto& c = o.counts;
  c["cache.puts"] = static_cast<double>(counter("cache.puts"));
  c["cache.gets"] = static_cast<double>(counter("cache.gets"));
  c["cache.bytes_written"] = static_cast<double>(counter("cache.bytes_written"));
  c["cache.bytes_read"] = static_cast<double>(counter("cache.bytes_read"));
  c["tensor.gemm_calls"] = static_cast<double>(counter("kernel.gemm_calls"));
  c["tensor.gemm_gflop"] =
      static_cast<double>(counter("kernel.gemm_flops")) * 1e-9;
  c["tensor.eltwise_calls"] =
      static_cast<double>(counter("kernel.eltwise_calls"));
  c["tensor.buffer_allocs"] =
      static_cast<double>(counter("tensor.buffer_allocs"));
}

double decode_ratio(std::uint64_t decodes, std::uint64_t reuses) {
  const std::uint64_t pulls = decodes + reuses;
  return pulls == 0 ? 0.0
                    : static_cast<double>(decodes) / static_cast<double>(pulls);
}

// ---------------------------------------------------------------------------
// Workloads. setup() builds what the run needs (timed as setup_s),
// end_setup() frees what run() will not use (untimed), run() makes the one
// call that runs the workload (timed as wall_s), and finish() reads the
// results and frees everything, untimed.

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(sim::DriverKind driver, std::size_t threads) = 0;
  virtual void end_setup() {}
  virtual void run() = 0;
  virtual Outcome finish() = 0;
  /// Frees a set-up that will not run.
  virtual void discard() = 0;
};

/// async_mlp: StellarisTrainer, set up by its constructor.
class AsyncTrain final : public Workload {
 public:
  explicit AsyncTrain(core::TrainConfig cfg) : cfg_(std::move(cfg)) {}

  void setup(sim::DriverKind driver, std::size_t threads) override {
    auto cfg = cfg_;
    cfg.driver = driver;
    cfg.driver_threads = threads;
    trainer_ = std::make_unique<core::StellarisTrainer>(cfg);
  }

  void run() override { result_ = trainer_->train(); }
  void discard() override { trainer_.reset(); }

  Outcome finish() override {
    trainer_.reset();
    const core::TrainResult& r = result_;
    Outcome o;
    add_train_digest(o, r);
    const double actors =
        static_cast<double>(counter("platform.invocations.actor"));
    const double learners =
        static_cast<double>(counter("platform.invocations.learner"));
    const double params =
        static_cast<double>(counter("platform.invocations.parameter"));
    o.sim_time_s = r.total_time_s;
    o.sim_cost_usd = r.total_cost_usd;
    o.final_reward = r.final_reward;
    o.p99_ms = round_p99_ms(r);
    o.steps = actors * static_cast<double>(cfg_.horizon * cfg_.envs_per_actor);
    o.requests = actors + learners + params;
    o.staleness = r.staleness_samples;
    double groups = 0.0;
    for (const auto& rec : r.rounds) groups += static_cast<double>(rec.group_size);
    o.mean_group = r.rounds.empty() ? 0.0
                                    : groups / static_cast<double>(r.rounds.size());
    auto& c = o.counts;
    c["serverless.actor_invocations"] = actors;
    c["serverless.learner_invocations"] = learners;
    c["serverless.param_invocations"] = params;
    c["serverless.cold_starts"] = static_cast<double>(r.cold_starts);
    c["envs.steps"] = o.steps;
    c["core.policy_decode_ratio"] =
        decode_ratio(counter("trainer.policy_decodes"),
                     counter("trainer.policy_pull_reuses"));
    c["evaluations"] = evaluations(r);
    c["trajectories_encoded"] = actors;
    c["trajectories_decoded"] =
        learners * static_cast<double>(cfg_.trajs_per_learner);
    c["driver_jobs"] = actors + learners;
    add_registry_counts(o);
    return o;
  }

  /// p99 of the virtual interval between consecutive policy updates, in ms:
  /// the latency a consumer of the trained policy waits for the next one.
  static double round_p99_ms(const core::TrainResult& r) {
    std::vector<double> gaps;
    double prev = 0.0;
    for (const auto& rec : r.rounds) {
      gaps.push_back(rec.time_s - prev);
      prev = rec.time_s;
    }
    if (gaps.empty()) return 0.0;
    std::sort(gaps.begin(), gaps.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(gaps.size())));
    return 1e3 * gaps[std::max<std::size_t>(rank, 1) - 1];
  }

  static double evaluations(const core::TrainResult& r) {
    return static_cast<double>(
        std::count_if(r.rounds.begin(), r.rounds.end(),
                      [](const core::RoundRecord& rec) { return rec.evaluated; }));
  }

 private:
  core::TrainConfig cfg_;
  std::unique_ptr<core::StellarisTrainer> trainer_;
  core::TrainResult result_;
};

/// sync_conv: baselines::run_sync_training (MinionsRL variant). The function
/// builds its state internally and exposes no separate set-up, so setup()
/// builds a copy of the objects it builds first (two models, the actors and
/// their envs, the evaluation env, the context pool and the driver), and
/// end_setup() frees the copy before run() times the whole function, so the
/// run's memory is its own.
class SyncTrain final : public Workload {
 public:
  explicit SyncTrain(core::TrainConfig cfg) : cfg_(std::move(cfg)) {}

  void setup(sim::DriverKind driver, std::size_t threads) override {
    driver_ = driver;
    threads_ = threads;
    const envs::EnvSpec spec = envs::env_spec(cfg_.env_name);
    const nn::NetworkSpec net = net_spec(spec, cfg_.network_width);
    state_ = std::make_unique<State>();
    for (std::uint64_t salt : {0x11ULL, 0x55ULL})
      state_->models.push_back(std::make_unique<nn::ActorCritic>(
          spec.obs, spec.action_kind, spec.act_dim, net, cfg_.seed ^ salt));
    for (std::size_t i = 0; i < cfg_.num_actors; ++i)
      state_->actors.push_back(std::make_unique<rl::VecActor>(
          std::make_unique<envs::VecEnv>(cfg_.env_name, cfg_.envs_per_actor,
                                         cfg_.seed * 7919 + i),
          cfg_.seed * 7919 + i));
    state_->eval_env = envs::make_env(cfg_.env_name);
    state_->driver =
        sim::make_driver(driver, sim::resolve_driver_threads(threads));
    state_->pool = std::make_unique<core::WorkerContextPool>(
        spec, net, cfg_.seed ^ 0x66ULL);
  }

  void run() override {
    baselines::SyncConfig sc;
    sc.base = cfg_;
    sc.base.driver = driver_;
    sc.base.driver_threads = threads_;
    sc.variant = baselines::SyncVariant::kMinionsLike;
    result_ = baselines::run_sync_training(sc);
  }
  void end_setup() override { state_.reset(); }
  void discard() override { state_.reset(); }

  Outcome finish() override {
    const core::TrainResult& r = result_;
    Outcome o;
    add_train_digest(o, r);
    const double rounds = static_cast<double>(r.rounds.size());
    const double actors = rounds * static_cast<double>(cfg_.num_actors);
    const double learners = static_cast<double>(r.learner_invocations);
    o.sim_time_s = r.total_time_s;
    o.sim_cost_usd = r.total_cost_usd;
    o.final_reward = r.final_reward;
    o.p99_ms = AsyncTrain::round_p99_ms(r);
    o.steps = actors * static_cast<double>(cfg_.horizon * cfg_.envs_per_actor);
    o.requests = actors + learners;
    o.mean_group = 1.0;
    auto& c = o.counts;
    c["serverless.actor_invocations"] = actors;
    c["serverless.learner_invocations"] = learners;
    c["serverless.param_invocations"] = 0.0;
    c["serverless.cold_starts"] = static_cast<double>(r.cold_starts);
    c["envs.steps"] = o.steps;
    c["core.policy_decode_ratio"] = 0.0;
    c["evaluations"] = AsyncTrain::evaluations(r);
    c["trajectories_encoded"] = 0.0;
    c["trajectories_decoded"] = 0.0;
    c["driver_jobs"] = actors + learners;
    add_registry_counts(o);
    return o;
  }

  static nn::NetworkSpec net_spec(const envs::EnvSpec& spec,
                                  std::size_t width) {
    return spec.obs.image ? nn::NetworkSpec::atari()
                          : nn::NetworkSpec::mujoco(width);
  }

 private:
  struct State {
    std::vector<std::unique_ptr<nn::ActorCritic>> models;
    std::vector<std::unique_ptr<rl::VecActor>> actors;
    std::unique_ptr<envs::Env> eval_env;
    std::unique_ptr<core::WorkerContextPool> pool;
    std::unique_ptr<sim::Driver> driver;  // last: drained first
  };
  core::TrainConfig cfg_;
  sim::DriverKind driver_ = sim::DriverKind::kVirtual;
  std::size_t threads_ = 0;
  std::unique_ptr<State> state_;
  core::TrainResult result_;
};

/// serve_mix: ServeEngine, set up by its constructor plus one policy publish
/// per tenant.
class ServeMix final : public Workload {
 public:
  explicit ServeMix(ServeSpec spec) : spec_(std::move(spec)) {}

  void setup(sim::DriverKind driver, std::size_t threads) override {
    auto cfg = spec_.cfg;
    cfg.driver = driver;
    cfg.driver_threads = threads;
    engine_ = std::make_unique<serve::ServeEngine>(cfg);
    for (std::size_t t = 0; t < cfg.tenants.size(); ++t)
      engine_->publish_policy(
          t, serve::make_policy_params(cfg.tenants[t], spec_.policy_seeds[t]),
          cfg.tenants[t].initial_version);
  }

  void run() override { result_ = engine_->run(); }
  void discard() override { engine_.reset(); }

  Outcome finish() override {
    const double events =
        static_cast<double>(engine_->engine().executed_events());
    engine_.reset();
    const serve::ServeResult& r = result_;
    Outcome o;
    auto& d = o.digest;
    d.emplace_back("completed", static_cast<double>(r.completed));
    d.emplace_back("makespan_s", r.duration_s);
    d.emplace_back("cost_usd", r.cost_usd);
    double p99 = 0.0, batches = 0.0, batched = 0.0;
    for (const auto& t : r.tenants) {
      d.emplace_back(t.name + ".value_checksum", t.value_checksum);
      d.emplace_back(t.name + ".p99_s", t.p99_s);
      p99 = std::max(p99, t.p99_s);
      batches += static_cast<double>(t.batches);
      batched += t.mean_batch * static_cast<double>(t.batches);
    }
    const double completed = static_cast<double>(r.completed);
    o.sim_time_s = r.duration_s;
    o.sim_cost_usd = r.cost_usd;
    o.p99_ms = 1e3 * p99;
    o.steps = events;
    o.requests = completed;
    o.mean_batch = batches > 0.0 ? batched / batches : 0.0;
    o.mean_group = 1.0;
    auto& c = o.counts;
    c["serverless.actor_invocations"] = 0.0;
    c["serverless.learner_invocations"] = 0.0;
    c["serverless.param_invocations"] = 0.0;
    c["serverless.cold_starts"] = static_cast<double>(r.cold_starts);
    c["envs.steps"] = 0.0;
    c["core.policy_decode_ratio"] =
        decode_ratio(r.policy_decodes, r.policy_reuses);
    c["sim.events"] = events;
    c["serve.batches"] = batches;
    c["serve.mean_batch"] = o.mean_batch;
    c["evaluations"] = 0.0;
    c["trajectories_encoded"] = 0.0;
    c["trajectories_decoded"] = 0.0;
    c["driver_jobs"] = batches;
    add_registry_counts(o);
    return o;
  }

 private:
  ServeSpec spec_;
  std::unique_ptr<serve::ServeEngine> engine_;
  serve::ServeResult result_;
};

// ---------------------------------------------------------------------------
// JSON output.

std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

/// Exact decimal; non-finite values in the spelling Python's json reads.
std::string num(double x) {
  if (std::isnan(x)) return "NaN";
  if (std::isinf(x)) return x > 0 ? "Infinity" : "-Infinity";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// "[item(x0),item(x1),...]"
template <typename T, typename Item>
std::string json_list(const std::vector<T>& xs, Item&& item) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < xs.size(); ++i) os << (i ? "," : "") << item(xs[i]);
  os << ']';
  return os.str();
}

/// "{"k0":value(v0),...}"
template <typename Map, typename Value>
std::string json_object(const Map& m, Value&& value) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "" : ",") << '"' << k << "\":" << value(v);
    first = false;
  }
  os << '}';
  return os.str();
}

std::string num_list(const std::vector<double>& xs) {
  return json_list(xs, num);
}

std::string outcome_json(const Outcome& o) {
  std::ostringstream os;
  os << "{\"digest\":"
     << json_list(o.digest,
                  [](const auto& f) {
                    std::ostringstream e;
                    e << "[\"" << f.first << "\",\"" << hex(f.second) << "\"]";
                    return e.str();
                  })
     << ",\"sim_time_s\":" << num(o.sim_time_s)
     << ",\"sim_cost_usd\":" << num(o.sim_cost_usd)
     << ",\"final_reward\":" << num(o.final_reward)
     << ",\"p99_ms\":" << num(o.p99_ms) << ",\"steps\":" << num(o.steps)
     << ",\"requests\":" << num(o.requests)
     << ",\"staleness_n\":" << o.staleness.size() << ",\"staleness_max\":"
     << num(o.staleness.empty()
                ? 0.0
                : *std::max_element(o.staleness.begin(), o.staleness.end()))
     << ",\"counts\":" << json_object(o.counts, num) << "}";
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string fingerprint_json(sim::DriverKind driver,
                             std::size_t driver_threads) {
  std::map<std::string, std::string> f;
  f["nproc"] = std::to_string(std::thread::hardware_concurrency());
  std::string isa;
  auto cpu = [&](const char* flag, bool has) {
    if (has) isa += std::string(isa.empty() ? "" : " ") + flag;
  };
  __builtin_cpu_init();
  cpu("sse4.2", __builtin_cpu_supports("sse4.2"));
  cpu("avx", __builtin_cpu_supports("avx"));
  cpu("avx2", __builtin_cpu_supports("avx2"));
  cpu("fma", __builtin_cpu_supports("fma"));
  cpu("avx512f", __builtin_cpu_supports("avx512f"));
  f["host_isa"] = isa;
  std::string build_isa = "baseline";
#if defined(__AVX512F__)
  build_isa = "avx512f";
#elif defined(__AVX2__)
  build_isa = "avx2";
#elif defined(__AVX__)
  build_isa = "avx";
#endif
  f["build_isa"] = build_isa;
#if defined(__clang__)
  f["compiler"] = std::string("clang ") + __clang_version__;
#else
  f["compiler"] = std::string("gcc ") + __VERSION__;
#endif
  f["build_type"] = STACKBENCH_BUILD_TYPE;
  f["native_arch"] = STACKBENCH_NATIVE_ARCH ? "ON" : "OFF";
  f["lock_order_check"] = STELLARIS_LOCK_ORDER_CHECK ? "ON" : "OFF";
  f["kernel_threads"] = std::to_string(ops::kernel_threads());
  f["driver"] = sim::driver_kind_name(driver);
  f["driver_threads"] = std::to_string(driver_threads);
  return json_object(f, [](const std::string& v) {
    std::ostringstream os;
    os << '"' << v << '"';
    return os.str();
  });
}

// ---------------------------------------------------------------------------
// measure mode

/// The driver the workload's config runs on, and its worker threads (1 for
/// the virtual driver, which runs bodies inline).
std::pair<sim::DriverKind, std::size_t> configured_driver(
    const minijson::Value& cfg) {
  const auto kind = sim::parse_driver_kind(cfg.at("driver").string());
  if (!kind) throw std::runtime_error("unknown driver");
  return {*kind, *kind == sim::DriverKind::kVirtual ? 1 : kDriverThreads};
}

struct Timed {
  double setup_s = 0.0;
  double wall_s = 0.0;
  Outcome outcome;
};

/// One (set-up, run) rep. The metrics registry is zeroed between the two, so
/// the outcome's counts cover the run alone.
Timed timed_run(Workload& w, sim::DriverKind driver, std::size_t threads) {
  Timed t;
  auto t0 = Clock::now();
  w.setup(driver, threads);
  t.setup_s = since(t0);
  w.end_setup();
  obs::metrics().reset();
  t0 = Clock::now();
  w.run();
  t.wall_s = since(t0);
  t.outcome = w.finish();
  return t;
}

/// Measured run over the config's variants (the same workload at several
/// seeds): every variant once untimed, then set-ups alone, then timed reps
/// that cycle through the variants until `seconds` have passed.
std::string measure(const std::vector<std::unique_ptr<Workload>>& variants,
                    const minijson::Value& cfg) {
  const double seconds = cfg.at("seconds").number();
  const auto [driver, threads] = configured_driver(cfg);

  std::vector<std::string> warmups;
  for (const auto& w : variants)
    warmups.push_back(outcome_json(timed_run(*w, driver, threads).outcome));

  // A short pause after each set-up lets the previous set-up's driver
  // threads finish exiting; back to back, their exit overlaps the next
  // set-up and splits its times into two modes.
  std::vector<double> setup_s;
  auto start = Clock::now();
  while (setup_s.size() < kSetupReps || since(start) < kSetupBudgetS) {
    Workload& w = *variants[setup_s.size() % variants.size()];
    const auto t0 = Clock::now();
    w.setup(driver, threads);
    setup_s.push_back(since(t0));
    w.discard();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  std::vector<double> wall_s;
  std::vector<std::string> reps;
  start = Clock::now();
  while (wall_s.size() < kMinReps || since(start) < seconds) {
    const std::size_t v = wall_s.size() % variants.size();
    const Timed t = timed_run(*variants[v], driver, threads);
    setup_s.push_back(t.setup_s);
    wall_s.push_back(t.wall_s);
    std::ostringstream rep;
    rep << "{\"variant\":" << v << ",\"outcome\":" << outcome_json(t.outcome)
        << "}";
    reps.push_back(rep.str());
  }
  auto raw = [](const std::string& r) { return r; };
  std::ostringstream os;
  os << "{\"mode\":\"measure\",\"fingerprint\":" << fingerprint_json(driver, threads)
     << ",\"warmups\":" << json_list(warmups, raw)
     << ",\"reps\":" << json_list(reps, raw)
     << ",\"setup_s\":" << num_list(setup_s)
     << ",\"wall_s\":" << num_list(wall_s)
     << ",\"peak_rss_mb\":" << num(peak_rss_mb()) << "}";
  return os.str();
}

// ---------------------------------------------------------------------------
// trace mode: per-layer timings from outside the program.

/// Calls `fn` in chunks of `chunk` calls until `budget_s` has passed and at
/// least `min_chunks` chunks ran; returns each chunk's seconds per call.
template <typename Fn>
std::vector<double> time_calls(double budget_s, std::size_t chunk,
                               std::size_t min_chunks, Fn&& fn) {
  std::vector<double> out;
  const auto start = Clock::now();
  while (out.size() < min_chunks || since(start) < budget_s) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < chunk; ++i) fn();
    out.push_back(since(t0) / static_cast<double>(chunk));
  }
  return out;
}

/// Shapes the layer timings run at: the training side's config, the serving
/// tenant whose batched forward is timed, and figures taken from the run.
struct LayerShapes {
  core::TrainConfig train;
  serve::TenantConfig tenant;
  std::size_t learner_trajs = 1;  ///< actor batches per learner update
  std::size_t agg_group = 1;      ///< gradients per aggregation
  std::size_t serve_batch = kServeBatchFallback;  ///< rows per serve forward
  /// Cache payload: a policy snapshot (serving reads these) rather than a
  /// trajectory (training moves these).
  bool policy_payload = false;
};

std::map<std::string, std::vector<double>> time_layers(const LayerShapes& s,
                                                       double budget_s) {
  std::map<std::string, std::vector<double>> out;
  const core::TrainConfig& cfg = s.train;
  const envs::EnvSpec spec = envs::env_spec(cfg.env_name);
  const nn::NetworkSpec net = SyncTrain::net_spec(spec, cfg.network_width);
  const std::size_t k = cfg.envs_per_actor;
  const bool discrete = spec.action_kind == nn::ActionKind::kDiscrete;
  auto make_model = [&](std::uint64_t seed) {
    return std::make_unique<nn::ActorCritic>(spec.obs, spec.action_kind,
                                             spec.act_dim, net, seed);
  };
  auto model = make_model(cfg.seed ^ 0x11ULL);
  Rng rng(cfg.seed ^ 0xbe9cULL);

  {  // envs.step_us: one VecEnv step of K envs.
    envs::VecEnv env(cfg.env_name, k, cfg.seed);
    Tensor obs;
    env.reset_all_into(rng, obs);
    envs::VecEnv::StepBatch step;
    const Tensor actions =
        Tensor::rand_uniform({k, spec.act_dim}, rng, -1.0f, 1.0f);
    std::vector<std::size_t> disc(k, 0);
    out["envs.step_us"] = time_calls(budget_s, 64, 5, [&] {
      if (discrete) {
        for (auto& a : disc) a = rng.next() % spec.act_dim;
        env.step_discrete_into(disc, rng, step);
      } else {
        env.step_into(actions, rng, step);
      }
    });
  }
  {  // nn.actor_forward_us: policy and value forward at (K, obs_dim).
    const Tensor obs = Tensor::randn({k, spec.obs.flat_dim}, rng);
    out["nn.actor_forward_us"] = time_calls(budget_s, 64, 5, [&] {
      model->policy_forward(obs);
      model->value_forward(obs);
    });
  }
  // One actor's batch: the payload of encode/decode and cache timings, and
  // the learner batch's building block.
  rl::VecActor actor(std::make_unique<envs::VecEnv>(cfg.env_name, k, cfg.seed),
                     cfg.seed);
  rl::VecActorScratch scratch;
  out["rl.actor_sample_ms"] = time_calls(budget_s, 1, 3, [&] {
    actor.sample(*model, scratch, cfg.horizon, 1, rng);
  });
  std::vector<rl::SampleBatch> parts;
  for (std::size_t i = 0; i < std::max<std::size_t>(s.learner_trajs, 1); ++i)
    parts.push_back(actor.sample(*model, scratch, cfg.horizon, 1, rng));
  {
    auto env = envs::make_env(cfg.env_name);
    std::uint64_t seed = cfg.seed;
    out["rl.eval_ms"] = time_calls(budget_s, 1, 3, [&] {
      rl::evaluate_policy(*env, *model, cfg.eval_episodes, ++seed);
    });
  }
  {  // core.aggregate_ms: one aggregation of the run's mean group size.
    core::ParameterFunction::Config pc;
    pc.alpha0 = 1.0;
    pc.optimizer = "sgd";
    pc.max_grad_norm = 1e3;
    const auto [ls_off, ls_len] = model->log_std_span();
    pc.clamp_offset = ls_off;
    pc.clamp_len = ls_len;
    core::ParameterFunction pf(model->flat_params(), pc);
    std::vector<core::GradientQueue::Item> group(std::max<std::size_t>(s.agg_group, 1));
    for (std::size_t i = 0; i < group.size(); ++i) {
      const Tensor g = Tensor::randn({pf.param_dim()}, rng, 1e-3f);
      group[i].msg.grad = g.vec();
      group[i].msg.learner_id = i;
      group[i].msg.batch_size = cfg.horizon * k;
    }
    out["core.aggregate_ms"] = time_calls(budget_s, 1, 5, [&] {
      for (auto& item : group) item.msg.pulled_version = pf.version();
      pf.aggregate(group);
    });
  }
  {  // core.learner_update_ms on the learner's merged batch.
    const rl::SampleBatch merged =
        parts.size() == 1 ? parts.front() : rl::SampleBatch::concat(parts);
    auto local = make_model(cfg.seed ^ 0x66ULL);
    auto target = make_model(cfg.seed ^ 0x7a6eULL);
    const std::vector<float> params = model->flat_params();
    std::vector<double> per_call;
    const auto start = Clock::now();
    while (per_call.size() < 3 || since(start) < budget_s) {
      rl::SampleBatch batch = merged;
      const auto t0 = Clock::now();
      core::compute_learner_update(cfg, *local, *target, params, batch);
      per_call.push_back(since(t0));
    }
    out["core.learner_update_ms"] = std::move(per_call);
  }
  {  // util.encode_s_per_byte / decode: one actor batch over the wire.
    const std::vector<std::uint8_t> bytes = parts.front().serialize();
    const double n = static_cast<double>(bytes.size());
    auto per_byte = [n](std::vector<double> v) {
      for (double& x : v) x /= n;
      return v;
    };
    out["util.encode_s_per_byte"] = per_byte(time_calls(
        budget_s, 4, 5, [&] { (void)parts.front().serialize(); }));
    rl::SampleBatch decoded;
    out["util.decode_s_per_byte"] = per_byte(time_calls(
        budget_s, 4, 5,
        [&] { rl::SampleBatch::deserialize_into(bytes, decoded); }));
    out["payload_bytes"] = {n};
  }
  {  // cache.put_us / get_us at the payload size the workload moves.
    const std::vector<std::uint8_t> payload =
        s.policy_payload
            ? core::encode_policy(
                  serve::make_policy_params(s.tenant, cfg.seed), 1)
            : parts.front().serialize();
    cache::DistributedCache cache;
    constexpr std::size_t kChunk = 32;
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < kChunk; ++i)
      keys.push_back(core::keys::trajectory(i));
    std::vector<double> put_s, get_s;
    const auto start = Clock::now();
    while (put_s.size() < 5 || since(start) < 2.0 * budget_s) {
      std::vector<cache::Bytes> copies(kChunk, payload);
      auto t0 = Clock::now();
      for (std::size_t i = 0; i < kChunk; ++i)
        cache.put(keys[i], std::move(copies[i]));
      put_s.push_back(since(t0) / kChunk);
      t0 = Clock::now();
      for (std::size_t i = 0; i < kChunk; ++i) (void)cache.get(keys[i]);
      get_s.push_back(since(t0) / kChunk);
      cache.clear();
    }
    out["cache.put_us"] = std::move(put_s);
    out["cache.get_us"] = std::move(get_s);
  }
  {  // sim.event_us: schedule_at + step of a no-op event, 256 pending.
    sim::Engine engine;
    for (int i = 0; i < 256; ++i) engine.schedule_at(1e9 + i, [] {});
    out["sim.event_us"] = time_calls(budget_s, 256, 5, [&] {
      engine.schedule_at(engine.now() + 1e-6, [] {});
      engine.step();
    });
  }
  {  // sim.job_us: concurrent-driver submit + join of a no-op job.
    auto driver = sim::make_concurrent_driver(kDriverThreads);
    out["sim.job_us"] = time_calls(budget_s, 64, 5, [&] {
      sim::Driver::join(driver->submit([] {}));
    });
    driver->drain();
  }
  {  // serve.batch_forward_us: the tenant's forward at the mean batch.
    const auto& t = s.tenant;
    nn::NetworkSpec tnet;
    tnet.hidden = {t.hidden, t.hidden};
    nn::ActorCritic served(nn::ObsSpec::vector(t.obs_dim),
                           t.discrete ? nn::ActionKind::kDiscrete
                                      : nn::ActionKind::kContinuous,
                           t.act_dim, tnet, cfg.seed);
    const Tensor obs =
        Tensor::randn({std::max<std::size_t>(s.serve_batch, 1), t.obs_dim}, rng);
    out["serve.batch_forward_us"] = time_calls(budget_s, 64, 5, [&] {
      served.policy_forward(obs);
      served.value_forward(obs);
    });
  }
  return out;
}

/// What a captured run's ledger says, through stellaris_report_lib, about
/// the numbers the run also returns directly.
struct LedgerSummary {
  std::size_t runs = 0;
  std::size_t staleness_count = 0;  ///< gradients in aggregation events
  double staleness_max = 0.0;
  double serve_p99_ms = 0.0;  ///< worst tenant's p99 request latency
};

struct TracedRun {
  std::string driver;
  std::size_t threads = 0;
  double wall_s = 0.0;
  Outcome outcome;
  std::optional<LedgerSummary> ledger;  ///< set for captured runs
};

TracedRun traced_run(Workload& w, sim::DriverKind driver,
                     std::size_t threads) {
  Timed t = timed_run(w, driver, threads);
  return {sim::driver_kind_name(driver),
          driver == sim::DriverKind::kVirtual ? 1 : threads, t.wall_s,
          std::move(t.outcome), std::nullopt};
}

/// A run with ledger and time-series capture on.
TracedRun captured_run(Workload& w, sim::DriverKind driver,
                       std::size_t threads) {
  obs::LedgerRecorder ledger;
  obs::TimeSeriesRecorder series(1.0);
  obs::install_ledger(&ledger);
  obs::install_timeseries(&series);
  TracedRun t = traced_run(w, driver, threads);
  obs::install_ledger(nullptr);
  obs::install_timeseries(nullptr);

  LedgerSummary l;
  const auto reports = report::analyze_ledger(ledger.lines());
  l.runs = reports.size();
  if (!reports.empty()) {
    for (const auto& v : reports.back().staleness) {
      l.staleness_count += v.count;
      l.staleness_max = std::max(l.staleness_max, v.max);
    }
    for (const auto& tenant : reports.back().serve.tenants)
      l.serve_p99_ms = std::max(l.serve_p99_ms, 1e3 * tenant.p99_s);
  }
  t.ledger = l;
  return t;
}

std::string traced_json(const TracedRun& t) {
  std::ostringstream os;
  os << "{\"driver\":\"" << t.driver << "\",\"threads\":" << t.threads
     << ",\"wall_s\":" << num(t.wall_s)
     << ",\"outcome\":" << outcome_json(t.outcome);
  if (t.ledger) {
    const LedgerSummary& l = *t.ledger;
    os << ",\"ledger\":{\"runs\":" << l.runs
       << ",\"staleness_count\":" << l.staleness_count
       << ",\"staleness_max\":" << num(l.staleness_max)
       << ",\"serve_p99_ms\":" << num(l.serve_p99_ms) << "}";
  }
  os << "}";
  return os.str();
}

std::string trace(Workload& w, const minijson::Value& cfg,
                  LayerShapes shapes) {
  const double seconds = cfg.at("seconds").number();
  const double layer_budget_s = std::max(0.1, seconds / 40.0);
  const auto [driver, threads] = configured_driver(cfg);

  timed_run(w, driver, threads);  // warm-up

  // Whole sets, interleaved so slow drift of the host hits every
  // configuration alike, for half the run's time; the layer timings below
  // take about the other half.
  std::vector<TracedRun> runs;
  std::vector<TracedRun> captured;
  const auto start = Clock::now();
  do {
    runs.push_back(traced_run(w, sim::DriverKind::kVirtual, 0));
    runs.push_back(traced_run(w, sim::DriverKind::kConcurrent, 2));
    runs.push_back(traced_run(w, sim::DriverKind::kConcurrent, kDriverThreads));
    captured.push_back(captured_run(w, driver, threads));
  } while (since(start) < 0.5 * seconds);

  const auto configured = std::find_if(
      runs.rbegin(), runs.rend(), [&](const TracedRun& r) {
        return r.driver == sim::driver_kind_name(driver) &&
               r.threads == threads;
      });
  const Outcome& base = configured->outcome;
  shapes.agg_group = static_cast<std::size_t>(std::lround(base.mean_group));
  if (base.mean_batch > 0.0)
    shapes.serve_batch = static_cast<std::size_t>(std::lround(base.mean_batch));
  const auto layers = time_layers(shapes, layer_budget_s);

  std::ostringstream os;
  os << "{\"mode\":\"trace\",\"fingerprint\":" << fingerprint_json(driver, threads)
     << ",\"configured\":{\"driver\":\"" << sim::driver_kind_name(driver)
     << "\",\"threads\":" << threads
     << "},\"runs\":" << json_list(runs, traced_json)
     << ",\"captured\":" << json_list(captured, traced_json)
     << ",\"configured_outcome\":" << outcome_json(base)
     << ",\"staleness\":" << num_list(base.staleness)
     << ",\"layers\":" << json_object(layers, num_list) << "}";
  return os.str();
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& workload,
                                        const minijson::Value& variant) {
  if (workload == "async_mlp")
    return std::make_unique<AsyncTrain>(train_config(variant.at("train")));
  if (workload == "sync_conv")
    return std::make_unique<SyncTrain>(train_config(variant.at("train")));
  if (workload == "serve_mix")
    return std::make_unique<ServeMix>(serve_spec(variant.at("serve")));
  throw std::runtime_error("unknown workload: " + workload);
}

int main() {
  try {
    const std::string text{std::istreambuf_iterator<char>(std::cin),
                           std::istreambuf_iterator<char>()};
    const minijson::Value cfg = minijson::parse(text);
    const std::string& workload = cfg.at("workload").string();
    std::vector<std::unique_ptr<Workload>> variants;
    for (const auto& v : cfg.at("variants").arr)
      variants.push_back(make_workload(workload, v));
    if (variants.empty()) throw std::runtime_error("no variants");

    const std::string& mode = cfg.at("mode").string();
    if (mode == "measure") {
      std::cout << measure(variants, cfg) << "\n";
    } else if (mode == "trace") {
      // The traced run works on the first variant; its layer timings run at
      // that variant's shapes. The sync learner merges every actor's batch;
      // serving moves policy snapshots through the cache, training moves
      // trajectories.
      const minijson::Value& first = cfg.at("variants").arr.front();
      LayerShapes shapes;
      shapes.train = train_config(first.at("train"));
      shapes.tenant = serve_spec(first.at("serve")).cfg.tenants.front();
      shapes.learner_trajs = workload == "sync_conv"
                                 ? shapes.train.num_actors
                                 : shapes.train.trajs_per_learner;
      shapes.policy_payload = workload == "serve_mix";
      std::cout << trace(*variants.front(), cfg, shapes) << "\n";
    } else {
      throw std::runtime_error("unknown mode: " + mode);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stackbench: %s\n", e.what());
    return 1;
  }
}
