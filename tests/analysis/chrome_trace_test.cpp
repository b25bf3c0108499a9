// Tests of the Chrome trace view of a run ledger (tools/report/
// chrome_trace.hpp): the rendered JSON must parse, name its tracks in a
// stable order, reuse a track per container and per run, carry µs times,
// instants and running counter depths, escape hostile strings, keep
// non-finite args valid, lay invocation phases out from the `invoke`
// fields, and reject hostile ids.
#include "tools/report/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/stellaris_trainer.hpp"
#include "obs/obs.hpp"
#include "tools/report/ledger_analysis.hpp"
#include "util/error.hpp"
#include "util/mini_json.hpp"

namespace stellaris::report {
namespace {

std::string render(const std::vector<std::string>& lines) {
  std::ostringstream os;
  write_chrome_trace(lines, os);
  return os.str();
}

minijson::Value events_of(const std::vector<std::string>& lines) {
  const minijson::Value root = minijson::parse(render(lines));
  EXPECT_TRUE(root.is_object());
  const minijson::Value& evs = root.at("traceEvents");
  EXPECT_TRUE(evs.is_array());
  return evs;
}

std::vector<const minijson::Value*> with_ph(const minijson::Value& evs,
                                            const std::string& ph) {
  std::vector<const minijson::Value*> out;
  for (const auto& ev : evs.arr)
    if (ev.at("ph").string() == ph) out.push_back(&ev);
  return out;
}

// A crashed learner: submitted at 0.5, started cold at 1.0, killed at 2.5.
const char* kCrashedInvoke =
    R"({"ev":"invoke","run":1,"t":2.5,"kind":"learner","lid":5,)"
    R"("container":0,"pool":"gpu","submit":0.5,"start":1,"queue_s":0.5,)"
    R"("cold":true,"overhead_s":0.25,"start_latency_s":0.5,"tier":"cache",)"
    R"("bytes_in":100,"bytes_out":200,"transfer_in_s":0.25,)"
    R"("transfer_out_s":0.5,"compute_s":1,"billed_s":1.5,"cost_usd":0.01,)"
    R"("ok":false,"error":"crash"})";

TEST(ChromeTrace, EmptyLedgerHasOnlyProcessName) {
  const minijson::Value evs = events_of({});
  ASSERT_EQ(evs.arr.size(), 1u);
  EXPECT_EQ(evs.arr[0].at("ph").string(), "M");
  EXPECT_EQ(evs.arr[0].at("name").string(), "process_name");
  EXPECT_EQ(events_of({"", "  "}).arr.size(), 1u);
}

TEST(ChromeTrace, TrackMetadataAndTidOrderAreStable) {
  const std::vector<std::string> lines = {
      R"({"ev":"run_begin","run":1,"t":0,"env":"Hopper","actors":2,)"
      R"("rounds":1})",
      R"({"ev":"invoke","run":1,"t":1,"kind":"actor","container":2,)"
      R"("pool":"actor","submit":0,"start":0})",
      R"({"ev":"invoke","run":1,"t":2,"kind":"learner","container":0,)"
      R"("pool":"gpu","submit":1,"start":1})",
      R"({"ev":"invoke","run":1,"t":3,"kind":"actor","container":2,)"
      R"("pool":"actor","submit":1,"start":1})",
      R"({"ev":"reclaim","run":1,"t":3,"vm":"c5","pool":"actor","killed":0})",
      R"({"ev":"round","run":1,"t":3,"round":1,"group_size":1,)"
      R"("mean_staleness":0,"kl":0})",
      R"({"ev":"run_end","run":1,"t":4})",
  };
  const std::string once = render(lines);
  EXPECT_EQ(render(lines), once);  // deterministic

  const minijson::Value evs = events_of(lines);
  std::vector<std::string> names;
  std::vector<double> tids;
  for (const auto* ev : with_ph(evs, "M")) {
    if (ev->at("name").string() != "thread_name") continue;
    names.push_back(ev->at("args").at("name").string());
    tids.push_back(ev->at("tid").number());
  }
  // First appearance order; the reused actor track gets no second entry.
  const std::vector<std::string> want = {"run1/trainer", "run1/actors/2",
                                         "run1/gpu/0", "run1/faults",
                                         "run1/trainer/rounds"};
  EXPECT_EQ(names, want);
  EXPECT_EQ(tids, (std::vector<double>{1, 2, 3, 4, 5}));

  // The train span covers run_begin → run_end on the trainer track.
  bool saw_train = false;
  for (const auto* ev : with_ph(evs, "X"))
    if (ev->at("name").string() == "train") {
      saw_train = true;
      EXPECT_EQ(ev->at("tid").number(), 1.0);
      EXPECT_DOUBLE_EQ(ev->at("ts").number(), 0.0);
      EXPECT_DOUBLE_EQ(ev->at("dur").number(), 4e6);
      EXPECT_EQ(ev->at("args").at("env").string(), "Hopper");
    }
  EXPECT_TRUE(saw_train);
}

TEST(ChromeTrace, InvocationPhasesFollowTheLedgerAndClipToTheKill) {
  const minijson::Value evs = events_of({kCrashedInvoke});
  const auto spans = with_ph(evs, "X");
  ASSERT_EQ(spans.size(), 4u);  // parent + 3 phases; cache_write never ran
  const auto& parent = *spans[0];
  EXPECT_EQ(parent.at("name").string(), "learner");
  EXPECT_EQ(parent.at("cat").string(), "learner");
  EXPECT_DOUBLE_EQ(parent.at("ts").number(), 1e6);
  EXPECT_DOUBLE_EQ(parent.at("dur").number(), 1.5e6);
  const minijson::Value& args = parent.at("args");
  EXPECT_EQ(args.at("cold").kind, minijson::Value::Kind::kBool);
  EXPECT_TRUE(args.at("cold").b);
  EXPECT_DOUBLE_EQ(args.at("queue_wait_s").number(), 0.5);
  EXPECT_DOUBLE_EQ(args.at("payload_in_bytes").number(), 100.0);
  EXPECT_DOUBLE_EQ(args.at("payload_out_bytes").number(), 200.0);
  EXPECT_EQ(args.at("error").string(), "crash");

  struct Phase {
    const char* name;
    double ts_us, dur_us;
  };
  // Phases start after the invoke overhead; compute is cut at the kill.
  const Phase want[] = {{"cold_start", 1.25e6, 0.5e6},
                        {"cache_read", 1.75e6, 0.25e6},
                        {"compute", 2.0e6, 0.5e6}};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& ph = *spans[i + 1];
    EXPECT_EQ(ph.at("name").string(), want[i].name);
    EXPECT_EQ(ph.at("cat").string(), "phase");
    EXPECT_EQ(ph.at("tid").number(), parent.at("tid").number());
    EXPECT_DOUBLE_EQ(ph.at("ts").number(), want[i].ts_us);
    EXPECT_DOUBLE_EQ(ph.at("dur").number(), want[i].dur_us);
  }

  // The GPU queue counter rises at submit and falls at start.
  std::vector<std::pair<double, double>> samples;
  for (const auto* c : with_ph(evs, "C")) {
    EXPECT_EQ(c->at("name").string(), "run1/queue_depth/gpu");
    samples.emplace_back(c->at("ts").number(),
                         c->at("args").at("value").number());
  }
  EXPECT_EQ(samples,
            (std::vector<std::pair<double, double>>{{0.5e6, 1}, {1e6, 0}}));
}

TEST(ChromeTrace, TrackIsReusedAndNamedOnce) {
  const std::vector<std::string> lines = {
      R"({"ev":"invoke","run":1,"t":1,"kind":"learner","container":0,)"
      R"("pool":"gpu","submit":0,"start":0})",
      R"({"ev":"invoke","run":1,"t":2,"kind":"actor","container":0,)"
      R"("pool":"actor","submit":0,"start":0})",
      R"({"ev":"invoke","run":1,"t":3,"kind":"learner","container":0,)"
      R"("pool":"gpu","submit":1,"start":1})",
  };
  const minijson::Value evs = events_of(lines);
  std::size_t thread_names = 0;
  for (const auto* ev : with_ph(evs, "M")) {
    if (ev->at("name").string() != "thread_name") continue;
    ++thread_names;
    const std::string& label = ev->at("args").at("name").string();
    EXPECT_TRUE(label == "run1/gpu/0" || label == "run1/actors/0") << label;
  }
  EXPECT_EQ(thread_names, 2u);  // the reused GPU track is named once

  // Same container number, different pools: distinct tracks. Same pool and
  // container: the same tid.
  const auto spans = with_ph(evs, "X");
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0]->at("tid").number(), spans[2]->at("tid").number());
  EXPECT_NE(spans[0]->at("tid").number(), spans[1]->at("tid").number());
}

TEST(ChromeTrace, RoundSpanCarriesMicrosecondTimes) {
  const minijson::Value evs = events_of({
      R"({"ev":"run_begin","run":1,"t":1.25,"env":"Hopper"})",
      R"({"ev":"round","run":1,"t":2.5,"round":3,"group_size":2,)"
      R"("mean_staleness":0.5,"kl":0.0125})",
      R"({"ev":"round","run":1,"t":3,"round":4,"group_size":2,)"
      R"("mean_staleness":1,"kl":0.25})",
  });
  const auto spans = with_ph(evs, "X");
  ASSERT_EQ(spans.size(), 2u);  // no run_end, so no train span
  const minijson::Value& first = *spans[0];
  EXPECT_EQ(first.at("name").string(), "round");
  EXPECT_EQ(first.at("cat").string(), "round");
  // The first round starts at run_begin; later ones at the previous round.
  EXPECT_DOUBLE_EQ(first.at("ts").number(), 1.25e6);
  EXPECT_DOUBLE_EQ(first.at("dur").number(), 1.25e6);
  EXPECT_DOUBLE_EQ(first.at("args").at("round").number(), 3.0);
  EXPECT_DOUBLE_EQ(first.at("args").at("group_size").number(), 2.0);
  EXPECT_NEAR(first.at("args").at("kl").number(), 0.0125, 1e-12);
  EXPECT_DOUBLE_EQ(first.at("args").at("mean_staleness").number(), 0.5);
  EXPECT_DOUBLE_EQ(spans[1]->at("ts").number(), 2.5e6);
  EXPECT_DOUBLE_EQ(spans[1]->at("dur").number(), 0.5e6);
  EXPECT_DOUBLE_EQ(spans[1]->at("args").at("round").number(), 4.0);
}

TEST(ChromeTrace, InstantAndCounterEvents) {
  const minijson::Value evs = events_of({
      R"({"ev":"traj","run":1,"t":0.25,"traj_id":9,"actor":1,)"
      R"("policy_version":2})",
      R"({"ev":"grad","run":1,"t":0.5,"learner_id":7,"pulled_version":2,)"
      R"("staleness":1})",
      R"({"ev":"grad","run":1,"t":0.75,"learner_id":8,"pulled_version":2,)"
      R"("staleness":1})",
      R"({"ev":"agg_begin","run":1,"t":1,"group":[7,8]})",
      R"({"ev":"retry","run":1,"t":1.5,"kind":"actor","error":"crash",)"
      R"("attempt":1,"backoff_s":0.125})",
  });
  std::map<std::string, const minijson::Value*> instants;
  for (const auto* ev : with_ph(evs, "i")) {
    EXPECT_EQ(ev->at("s").string(), "t");
    instants.emplace(ev->at("name").string(), ev);
  }
  ASSERT_EQ(instants.count("traj_published"), 1u);
  ASSERT_EQ(instants.count("grad_enqueued"), 1u);  // the first of the two
  ASSERT_EQ(instants.count("retry"), 1u);
  const minijson::Value& grad = *instants.at("grad_enqueued");
  EXPECT_EQ(grad.at("cat").string(), "trainer");
  EXPECT_DOUBLE_EQ(grad.at("ts").number(), 0.5e6);
  EXPECT_DOUBLE_EQ(grad.at("args").at("learner_id").number(), 7.0);
  EXPECT_DOUBLE_EQ(grad.at("args").at("staleness_now").number(), 1.0);
  const minijson::Value& retry = *instants.at("retry");
  EXPECT_EQ(retry.at("cat").string(), "fault");
  EXPECT_NE(retry.at("tid").number(), grad.at("tid").number());
  EXPECT_DOUBLE_EQ(retry.at("args").at("backoff_s").number(), 0.125);

  // Counters: the running depth at each timestamp, per queue.
  std::map<std::string, std::vector<std::pair<double, double>>> counters;
  for (const auto* c : with_ph(evs, "C"))
    counters[c->at("name").string()].emplace_back(
        c->at("ts").number(), c->at("args").at("value").number());
  using Samples = std::vector<std::pair<double, double>>;
  EXPECT_EQ(counters["run1/pending_trajectories"], (Samples{{0.25e6, 1}}));
  EXPECT_EQ(counters["run1/gradient_queue_depth"],
            (Samples{{0.5e6, 1}, {0.75e6, 2}, {1e6, 0}}));
}

TEST(ChromeTrace, RunsGetDistinctTracks) {
  const std::vector<std::string> lines = {
      R"({"ev":"run_begin","run":1,"t":0})",
      R"({"ev":"run_end","run":1,"t":1})",
      R"({"ev":"run_begin","run":2,"t":0})",
      R"({"ev":"grad","run":2,"t":0.5,"learner_id":0})",
      R"({"ev":"run_end","run":2,"t":2})",
  };
  const minijson::Value evs = events_of(lines);
  std::map<std::string, double> tid_of;
  for (const auto* ev : with_ph(evs, "M"))
    if (ev->at("name").string() == "thread_name")
      tid_of[ev->at("args").at("name").string()] = ev->at("tid").number();
  ASSERT_EQ(tid_of.count("run1/trainer"), 1u);
  ASSERT_EQ(tid_of.count("run2/trainer"), 1u);
  EXPECT_NE(tid_of["run1/trainer"], tid_of["run2/trainer"]);

  // Each run's train span lands on its own trainer track with its own span.
  std::map<double, double> train_dur_by_tid;
  for (const auto* ev : with_ph(evs, "X"))
    if (ev->at("name").string() == "train")
      train_dur_by_tid[ev->at("tid").number()] = ev->at("dur").number();
  EXPECT_EQ(train_dur_by_tid.size(), 2u);
  EXPECT_DOUBLE_EQ(train_dur_by_tid[tid_of["run1/trainer"]], 1e6);
  EXPECT_DOUBLE_EQ(train_dur_by_tid[tid_of["run2/trainer"]], 2e6);

  // Counters are per run: run 2's gradient does not show up under run 1.
  std::vector<std::string> grad_counters;
  for (const auto* c : with_ph(evs, "C"))
    if (c->at("name").string().find("gradient_queue_depth") !=
        std::string::npos)
      grad_counters.push_back(c->at("name").string());
  EXPECT_EQ(grad_counters,
            (std::vector<std::string>{"run2/gradient_queue_depth"}));
}

TEST(ChromeTrace, EscapesHostileStrings) {
  const std::string hostile = "quote\" slash\\ newline\n tab\t ctl\x01";
  const std::string q = obs::LedgerEvent::quote(hostile);
  const std::vector<std::string> lines = {
      R"({"ev":"run_begin","run":1,"t":0,"env":)" + q + "}",
      R"({"ev":"reclaim","run":1,"t":1,"pool":"gpu","killed":0,"vm":)" + q +
          "}",
      R"({"ev":"run_end","run":1,"t":2})",
  };
  const minijson::Value evs = events_of(lines);  // parse must not throw
  bool saw_env = false, saw_vm = false;
  for (const auto& ev : evs.arr) {
    if (!ev.has("args")) continue;
    const minijson::Value& args = ev.at("args");
    if (args.has("env")) {
      saw_env = true;
      EXPECT_EQ(args.at("env").string(), hostile);
    }
    if (args.has("vm")) {
      saw_vm = true;
      EXPECT_EQ(args.at("vm").string(), hostile);
    }
  }
  EXPECT_TRUE(saw_env);
  EXPECT_TRUE(saw_vm);
}

TEST(ChromeTrace, NonFiniteArgsRenderAsNull) {
  // The ledger renders non-finite doubles as null; the trace keeps them so.
  const minijson::Value evs = events_of({
      R"({"ev":"round","run":1,"t":1,"round":1,"group_size":2,)"
      R"("mean_staleness":null,"kl":null,"reward":null})",
  });
  const auto spans = with_ph(evs, "X");
  ASSERT_EQ(spans.size(), 1u);
  const minijson::Value& args = spans[0]->at("args");
  for (const char* key : {"mean_staleness", "kl", "reward"})
    EXPECT_EQ(args.at(key).kind, minijson::Value::Kind::kNull) << key;
}

TEST(ChromeTrace, FileRoundTrips) {
  const std::string ledger_file = "chrome_trace_test_tmp.jsonl";
  const std::string trace_file = "chrome_trace_test_tmp.json";
  {
    std::ofstream out(ledger_file);
    out << kCrashedInvoke << "\n";
  }
  {
    std::ofstream out(trace_file);
    write_chrome_trace(read_ledger_file(ledger_file), out);
  }
  std::ifstream in(trace_file);
  std::stringstream ss;
  ss << in.rdbuf();
  in.close();
  std::remove(ledger_file.c_str());
  std::remove(trace_file.c_str());
  EXPECT_EQ(ss.str(), render({kCrashedInvoke}));
  const minijson::Value root = minijson::parse(ss.str());
  EXPECT_TRUE(root.at("traceEvents").is_array());
}

TEST(ChromeTrace, HostileIdsThrowNamingLineAndKey) {
  // Every integer the renderer reads, in the event that carries it.
  const std::vector<std::pair<std::string, std::string>> positions = {
      {R"({"ev":"traj","t":1)", "run"},
      {R"({"ev":"invoke","run":1,"t":1)", "container"},
      {R"({"ev":"invoke","run":1,"t":1)", "bytes_in"},
      {R"({"ev":"invoke","run":1,"t":1)", "bytes_out"},
      {R"({"ev":"run_begin","run":1,"t":1)", "actors"},
      {R"({"ev":"run_begin","run":1,"t":1)", "rounds"},
      {R"({"ev":"round","run":1,"t":1)", "round"},
      {R"({"ev":"round","run":1,"t":1)", "group_size"},
      {R"({"ev":"traj","run":1,"t":1)", "traj_id"},
      {R"({"ev":"traj","run":1,"t":1)", "actor"},
      {R"({"ev":"traj","run":1,"t":1)", "policy_version"},
      {R"({"ev":"grad","run":1,"t":1)", "learner_id"},
      {R"({"ev":"grad","run":1,"t":1)", "pulled_version"},
      {R"({"ev":"grad","run":1,"t":1)", "staleness"},
      {R"({"ev":"ckpt","run":1,"t":1)", "version"},
      {R"({"ev":"restore","run":1,"t":1)", "version"},
      {R"({"ev":"restore","run":1,"t":1)", "dropped"},
      {R"({"ev":"retry","run":1,"t":1)", "attempt"},
      {R"({"ev":"reclaim","run":1,"t":1)", "killed"},
  };
  for (const auto& [prefix, key] : positions) {
    for (const char* bad : {"-1", "1e300", "2.5", "\"x\""}) {
      const std::vector<std::string> lines = {
          R"({"ev":"run_begin","run":1,"t":0})",
          prefix + ",\"" + key + "\":" + bad + "}"};
      try {
        render(lines);
        ADD_FAILURE() << "no throw for " << key << "=" << bad;
      } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
        EXPECT_NE(what.find("\"" + key + "\""), std::string::npos) << what;
      }
    }
  }
}

TEST(ChromeTrace, TrainingRunRendersOneSpanPerInvokeAndRound) {
  core::TrainConfig cfg;
  cfg.env_name = "Hopper";
  cfg.rounds = 4;
  cfg.num_actors = 3;
  cfg.horizon = 16;
  cfg.trajs_per_learner = 2;
  cfg.network_width = 8;
  cfg.eval_episodes = 1;
  cfg.seed = 3;
  obs::LedgerRecorder led;
  obs::install_ledger(&led);
  const auto result = core::run_training(cfg);
  obs::install_ledger(nullptr);
  const std::vector<std::string> lines = led.lines();

  std::size_t invokes = 0;
  for (const auto& line : lines)
    if (minijson::parse(line).at("ev").string() == "invoke") ++invokes;
  std::size_t invocation_spans = 0, rounds = 0, trains = 0;
  const minijson::Value evs = events_of(lines);
  for (const auto* ev : with_ph(evs, "X")) {
    const std::string& cat = ev->at("cat").string();
    EXPECT_GE(ev->at("dur").number(), 0.0);
    if (cat == "actor" || cat == "learner" || cat == "parameter")
      ++invocation_spans;
    if (cat == "round") ++rounds;
    if (ev->at("name").string() == "train") ++trains;
  }
  EXPECT_GT(invokes, 0u);
  EXPECT_EQ(invocation_spans, invokes);
  EXPECT_EQ(rounds, result.rounds.size());
  EXPECT_EQ(trains, 1u);
  // Queue depths never go negative.
  for (const auto* c : with_ph(evs, "C"))
    EXPECT_GE(c->at("args").at("value").number(), 0.0)
        << c->at("name").string();
}

}  // namespace
}  // namespace stellaris::report
