#include "serverless/platform.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace stellaris::serverless {

ServerlessPlatform::ServerlessPlatform(sim::Engine& engine,
                                       ClusterSpec cluster,
                                       LatencyModel latency,
                                       std::uint64_t seed)
    : engine_(engine),
      cluster_(std::move(cluster)),
      latency_(latency),
      rng_(seed),
      gpu_pool_(cluster_.learner_slots(), latency_, seed ^ 0x6b75ULL, "gpu"),
      actor_pool_(std::max<std::size_t>(cluster_.actor_slots(), 1), latency_,
                  seed ^ 0xac70ULL, "actor") {
  auto& m = obs::metrics();
  m_invocations_[static_cast<int>(FnKind::kLearner)] =
      &m.counter("platform.invocations.learner");
  m_invocations_[static_cast<int>(FnKind::kParameter)] =
      &m.counter("platform.invocations.parameter");
  m_invocations_[static_cast<int>(FnKind::kActor)] =
      &m.counter("platform.invocations.actor");
  m_failed_invocations_ = &m.counter("platform.invocations_failed");
  m_retries_ = &m.counter("platform.retries");
  m_giveups_ = &m.counter("platform.retry_giveups");
  m_queue_wait_s_ = &m.histogram("platform.queue_wait_s", 0.0, 30.0, 120);
  m_gpu_queue_depth_ = &m.gauge("platform.queue_depth.gpu");
  m_actor_queue_depth_ = &m.gauge("platform.queue_depth.actor");

  // Host table for spot-style reclamation: each VM of the cluster spec maps
  // to a contiguous container-id range in its pool (GPU VMs host learner/
  // parameter slots, CPU VMs host actor slots), in spec order.
  std::size_t gpu_cursor = 0, actor_cursor = 0;
  for (const auto& group : cluster_.vms) {
    for (std::size_t i = 0; i < group.count; ++i) {
      if (group.type.gpus > 0) {
        const std::size_t n =
            group.type.gpus * cluster_.learner_slots_per_gpu;
        if (n > 0 && gpu_cursor + n <= gpu_pool_.capacity()) {
          vm_hosts_.push_back({true, gpu_cursor, n, group.type.name});
          gpu_cursor += n;
        }
      } else {
        const std::size_t n = group.type.vcpus;
        if (n > 0 && actor_cursor + n <= actor_pool_.capacity()) {
          vm_hosts_.push_back({false, actor_cursor, n, group.type.name});
          actor_cursor += n;
        }
      }
    }
  }
}

void ServerlessPlatform::set_fault_injector(fault::FaultInjector* injector) {
  injector_ = injector;
  if (injector_ && injector_->reclaims_enabled())
    injector_->arm_reclaims(
        [this](Rng& fault_rng) { reclaim_random_vm(fault_rng); });
}

ContainerPool& ServerlessPlatform::pool_for(FnKind kind) {
  return kind == FnKind::kActor ? actor_pool_ : gpu_pool_;
}

std::deque<ServerlessPlatform::Pending>& ServerlessPlatform::queue_for(
    FnKind kind) {
  return kind == FnKind::kActor ? actor_queue_ : gpu_queue_;
}

double ServerlessPlatform::unit_price(FnKind kind) const {
  // Parameter functions run on the GPU VMs at learner pricing.
  return kind == FnKind::kActor ? cluster_.actor_unit_price()
                                : cluster_.learner_unit_price();
}

void ServerlessPlatform::note_queue_depth(FnKind kind) const {
  const bool actor = kind == FnKind::kActor;
  const std::size_t depth =
      actor ? actor_queue_.size() : gpu_queue_.size();
  (actor ? m_actor_queue_depth_ : m_gpu_queue_depth_)
      ->set(static_cast<double>(depth));
  if (auto* ts = obs::timeseries())
    ts->sample(actor ? "platform.queue_depth.actor"
                     : "platform.queue_depth.gpu",
               engine_.now(), static_cast<double>(depth));
}

void ServerlessPlatform::note_inflight(FnKind kind) const {
  auto* ts = obs::timeseries();
  if (!ts) return;
  ts->sample(std::string("platform.inflight.") + fn_kind_name(kind),
             engine_.now(),
             static_cast<double>(inflight_by_kind_[static_cast<int>(kind)]));
}

void ServerlessPlatform::invoke(const InvokeOptions& options, Callback cb) {
  // The training platform hosts learner/parameter/actor functions only; the
  // serving tier (src/serve) runs its own data plane on its own pool and
  // meter, and its per-kind arrays here are sized for the training kinds.
  STELLARIS_CHECK_MSG(options.kind != FnKind::kServe,
                      "kServe invocations go through serve::ServeEngine");
  queue_for(options.kind).push_back(
      Pending{options, std::move(cb), engine_.now()});
  note_queue_depth(options.kind);
  try_dispatch(options.kind);
}

void ServerlessPlatform::invoke_retrying(const InvokeOptions& options,
                                         const fault::RetryPolicy& policy,
                                         Callback cb) {
  struct Chain {
    InvokeOptions options;
    fault::RetryPolicy policy;
    Callback cb;
    double first_submit = 0.0;
    std::size_t retries_done = 0;
    double wait_total = 0.0;
  };
  auto chain = std::make_shared<Chain>();
  chain->options = options;
  chain->policy = policy;
  chain->cb = std::move(cb);
  chain->first_submit = engine_.now();

  // The std::function stored in *submit captures `submit` by value so the
  // chain can re-schedule itself; that self-reference is a shared_ptr cycle,
  // so every terminal path must break it (*submit = nullptr) or the chain
  // leaks. The currently-executing callback owns its own refs, so clearing
  // *submit mid-call is safe.
  auto submit = std::make_shared<std::function<void()>>();
  *submit = [this, chain, submit] {
    invoke(chain->options, [this, chain, submit](const InvokeResult& r) {
      InvokeResult final = r;
      final.attempts = chain->retries_done + 1;
      final.retry_wait_s = chain->wait_total;
      if (r.ok) {
        *submit = nullptr;
        chain->cb(final);
        return;
      }
      const auto note_giveup = [&](const InvokeResult& res) {
        ++giveups_;
        m_giveups_->add();
        if (auto* led = obs::ledger())
          led->append(
              obs::LedgerEvent("giveup", engine_.now())
                  .field("kind", fn_kind_name(chain->options.kind))
                  .field("lid", chain->options.ledger_id)
                  .field("error", fault::error_kind_name(res.error))
                  .field("attempts", res.attempts)
                  .finish());
      };
      const std::size_t next_attempt = chain->retries_done + 1;
      if (!chain->policy.attempt_allowed(next_attempt)) {
        note_giveup(final);
        *submit = nullptr;
        chain->cb(final);
        return;
      }
      const double backoff = chain->policy.backoff_s(next_attempt, rng_);
      if (chain->policy.deadline_s > 0.0 &&
          engine_.now() + backoff - chain->first_submit >
              chain->policy.deadline_s) {
        final.error = fault::ErrorKind::kDeadline;
        note_giveup(final);
        *submit = nullptr;
        chain->cb(final);
        return;
      }
      ++chain->retries_done;
      chain->options.attempt = chain->retries_done + 1;
      chain->wait_total += backoff;
      ++retries_;
      m_retries_->add();
      if (auto* led = obs::ledger())
        led->append(obs::LedgerEvent("retry", engine_.now())
                        .field("kind", fn_kind_name(chain->options.kind))
                        .field("lid", chain->options.ledger_id)
                        .field("error", fault::error_kind_name(r.error))
                        .field("attempt", chain->retries_done)
                        .field("backoff_s", backoff)
                        .finish());
      if (auto* ts = obs::timeseries())
        ts->sample("platform.retries", engine_.now(),
                   static_cast<double>(retries_));
      engine_.schedule_after(backoff, [submit] { (*submit)(); });
    });
  };
  (*submit)();
}

void ServerlessPlatform::try_dispatch(FnKind kind) {
  auto& queue = queue_for(kind);
  auto& pool = pool_for(kind);
  const std::size_t before = queue.size();
  while (!queue.empty() && pool.busy() < pool.capacity()) {
    Pending p = std::move(queue.front());
    queue.pop_front();
    dispatch(std::move(p));
  }
  if (queue.size() != before) note_queue_depth(kind);
}

void ServerlessPlatform::ledger_invocation(const InFlight& inflight) const {
  auto* led = obs::ledger();
  if (!led) return;
  const InvokeResult& result = inflight.result;
  obs::LedgerEvent ev("invoke", result.end_time_s);
  ev.field("kind", fn_kind_name(inflight.kind))
      .field("lid", inflight.ledger_id)
      .field("container", inflight.container)
      .field("pool", inflight.kind == FnKind::kActor ? "actor" : "gpu")
      .field("submit", result.submit_time_s)
      .field("start", result.start_time_s)
      .field("queue_s", result.start_time_s - result.submit_time_s)
      .field("cold", result.cold)
      .field("overhead_s", latency_.invoke_overhead_s)
      .field("start_latency_s", result.start_latency_s)
      .field("tier", data_tier_name(inflight.tier))
      .field("bytes_in", inflight.payload_in_bytes)
      .field("bytes_out", inflight.payload_out_bytes)
      .field("transfer_in_s", inflight.transfer_in_s)
      .field("transfer_out_s", inflight.transfer_out_s)
      .field("compute_s", result.compute_s)
      .field("billed_s", result.billed_s)
      .field("cost_usd", result.cost_usd)
      .field("ok", result.ok);
  if (!result.ok) ev.field("error", fault::error_kind_name(result.error));
  if (inflight.straggler_mult > 1.0)
    ev.field("straggler_mult", inflight.straggler_mult);
  if (inflight.cache_delay_s > 0.0)
    ev.field("cache_delay_s", inflight.cache_delay_s);
  led->append(std::move(ev).finish());
}

void ServerlessPlatform::dispatch(Pending pending) {
  const FnKind kind = pending.options.kind;
  auto& pool = pool_for(kind);
  auto acq = pool.acquire(engine_.now());
  STELLARIS_CHECK(acq.has_value());  // try_dispatch checked capacity

  InvokeResult result;
  result.submit_time_s = pending.submit_time;
  result.start_time_s = engine_.now();
  result.cold = acq->cold;
  result.start_latency_s = acq->start_latency_s;
  if (pending.options.on_start) pending.options.on_start(result.start_time_s);

  // Fault plane verdict: the injector draws from its own RNG stream, so a
  // null injector (or a no-fault verdict) leaves the latency-jitter stream
  // below bit-identical to a faultless build.
  fault::InvocationFault fate;
  if (injector_) fate = injector_->on_invocation(static_cast<int>(kind));

  double transfer_in = latency_.transfer_s(
      pending.options.tier, pending.options.payload_in_bytes);
  const double transfer_out = latency_.transfer_s(
      pending.options.tier, pending.options.payload_out_bytes);
  transfer_in += fate.cache_delay_s;
  result.transfer_s = transfer_in + transfer_out;
  result.compute_s =
      latency_.jittered(pending.options.compute_s, rng_) * fate.straggler_mult;

  const double full_duration = latency_.invoke_overhead_s +
                               result.start_latency_s + result.transfer_s +
                               result.compute_s;
  double duration = full_duration;
  if (fate.fail == fault::ErrorKind::kCrash) {
    // The container dies after completing fail_frac of its work; the time
    // consumed up to the crash is billed.
    duration = full_duration * fate.fail_frac;
    result.ok = false;
    result.error = fault::ErrorKind::kCrash;
  } else if (fate.fail == fault::ErrorKind::kCacheError) {
    // The function runs, but a cache operation fails: full duration burned.
    result.ok = false;
    result.error = fault::ErrorKind::kCacheError;
  }
  result.end_time_s = engine_.now() + duration;
  result.billed_s = duration;
  result.cost_usd = unit_price(kind) * result.billed_s;

  // Real-execution handoff: the body starts computing (inline or on a
  // worker thread) while virtual time advances toward the completion
  // event. Only attempts the fault plane lets SUCCEED spawn a body — a
  // crashed or cache-failed attempt never publishes results, so skipping
  // its compute keeps the work set identical across drivers. (Reclaims are
  // decided later; those attempts spawn, and their jobs are abandoned at
  // the kill.)
  sim::Driver::Job job;
  if (pending.options.spawn_body && fate.fail == fault::ErrorKind::kNone)
    job = pending.options.spawn_body(pending.options.attempt);

  m_invocations_[static_cast<int>(kind)]->add();
  m_queue_wait_s_->observe(result.start_time_s - result.submit_time_s);

  const std::uint64_t token = next_token_++;
  InFlight inflight;
  inflight.kind = kind;
  inflight.container = acq->container_id;
  inflight.result = result;
  inflight.cb = std::move(pending.cb);
  inflight.tier = pending.options.tier;
  inflight.payload_in_bytes = pending.options.payload_in_bytes;
  inflight.payload_out_bytes = pending.options.payload_out_bytes;
  inflight.transfer_in_s = transfer_in;
  inflight.transfer_out_s = transfer_out;
  inflight.straggler_mult = fate.straggler_mult;
  inflight.cache_delay_s = fate.cache_delay_s;
  inflight.ledger_id = pending.options.ledger_id;
  inflight.job = std::move(job);
  inflight_.emplace(token, std::move(inflight));
  ++inflight_by_kind_[static_cast<int>(kind)];
  note_inflight(kind);
  engine_.schedule_after(duration, [this, token] { complete(token); });
}

void ServerlessPlatform::complete(std::uint64_t token) {
  auto it = inflight_.find(token);
  if (it == inflight_.end()) return;  // already failed by a VM reclamation
  InFlight inflight = std::move(it->second);
  inflight_.erase(it);
  const FnKind kind = inflight.kind;
  if (inflight.result.error == fault::ErrorKind::kCrash)
    pool_for(kind).kill(inflight.container);  // the container died with it
  else
    pool_for(kind).release(inflight.container, engine_.now());
  settle_inflight(inflight);
  try_dispatch(kind);
}

void ServerlessPlatform::settle_inflight(InFlight& inflight) {
  const FnKind kind = inflight.kind;
  costs_.record(kind, unit_price(kind), inflight.result.billed_s,
                !inflight.result.ok);
  if (kind != FnKind::kActor) learner_busy_s_ += inflight.result.billed_s;
  if (!inflight.result.ok) m_failed_invocations_->add();
  --inflight_by_kind_[static_cast<int>(kind)];
  note_inflight(kind);
  // The ledger event is emitted here — at the invocation's actual end
  // (completion or kill) — never at dispatch with a predicted end, so
  // reclaimed invocations close exactly at the reclaim time.
  ledger_invocation(inflight);
  if (auto* ts = obs::timeseries()) {
    ts->sample("platform.cost_usd", inflight.result.end_time_s,
               costs_.total_cost());
    if (!inflight.result.ok)
      ts->sample("platform.wasted_cost_usd", inflight.result.end_time_s,
                 costs_.total_wasted_cost());
  }
  // Merge point: a successful invocation's body must have finished before
  // the completion callback publishes its outputs. A failed one (reclaim)
  // abandons its job — the body self-completes on its worker and the
  // results are discarded, exactly as the killed container's output is.
  if (inflight.job) {
    if (inflight.result.ok) sim::Driver::join(inflight.job);
    inflight.job.reset();
  }
  if (inflight.cb) inflight.cb(inflight.result);
}

void ServerlessPlatform::reclaim_random_vm(Rng& fault_rng) {
  if (vm_hosts_.empty()) return;
  const VmHost& host = vm_hosts_[fault_rng.uniform_int(vm_hosts_.size())];
  const double now = engine_.now();

  // Detach every invocation running on the host from the in-flight table,
  // then kill every slot (busy and warm alike) — all BEFORE any completion
  // callback or dispatch pass runs. Settling victims one by one would let a
  // dispatch land fresh work on a just-freed slot this reclamation is about
  // to kill, stranding its in-flight entry on a dead (or re-booked) slot.
  std::vector<InFlight> failed;
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    const bool on_gpu_pool = it->second.kind != FnKind::kActor;
    if (on_gpu_pool == host.gpu_pool &&
        it->second.container >= host.first_slot &&
        it->second.container < host.first_slot + host.slot_count) {
      failed.push_back(std::move(it->second));
      it = inflight_.erase(it);
    } else {
      ++it;
    }
  }
  auto& pool = host.gpu_pool ? gpu_pool_ : actor_pool_;
  for (std::size_t i = 0; i < host.slot_count; ++i)
    pool.kill(host.first_slot + i);

  LOG_DEBUG << "reclaiming VM " << host.vm_name << " ("
            << (host.gpu_pool ? "gpu" : "actor") << " slots "
            << host.first_slot << "+" << host.slot_count << ") at t=" << now
            << ": killing " << failed.size() << " invocations";
  if (auto* led = obs::ledger())
    led->append(obs::LedgerEvent("reclaim", now)
                    .field("vm", host.vm_name)
                    .field("pool", host.gpu_pool ? "gpu" : "actor")
                    .field("killed", failed.size())
                    .finish());

  // The host is fully dead; fail the victims, billed for the time consumed.
  for (InFlight& inflight : failed) {
    inflight.result.end_time_s = now;
    inflight.result.billed_s =
        std::max(0.0, now - inflight.result.start_time_s);
    inflight.result.cost_usd =
        unit_price(inflight.kind) * inflight.result.billed_s;
    inflight.result.ok = false;
    inflight.result.error = fault::ErrorKind::kVmReclaim;
    settle_inflight(inflight);
  }
  try_dispatch(host.gpu_pool ? FnKind::kLearner : FnKind::kActor);
}

std::size_t ServerlessPlatform::prewarm_learners(std::size_t n) {
  const std::size_t warmed = gpu_pool_.prewarm(n, engine_.now());
  LOG_DEBUG << "prewarmed " << warmed << "/" << n
            << " learner containers at t=" << engine_.now();
  return warmed;
}

std::size_t ServerlessPlatform::prewarm_actors(std::size_t n) {
  const std::size_t warmed = actor_pool_.prewarm(n, engine_.now());
  LOG_DEBUG << "prewarmed " << warmed << "/" << n
            << " actor containers at t=" << engine_.now();
  return warmed;
}

double ServerlessPlatform::gpu_utilization() const {
  const double elapsed = engine_.now();
  if (elapsed <= 0.0) return 0.0;
  const double slot_seconds =
      static_cast<double>(gpu_pool_.capacity()) * elapsed;
  return learner_busy_s_ / slot_seconds;
}

std::size_t ServerlessPlatform::queued(FnKind kind) const {
  return kind == FnKind::kActor ? actor_queue_.size() : gpu_queue_.size();
}

}  // namespace stellaris::serverless
