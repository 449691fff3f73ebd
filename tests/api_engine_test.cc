// The unified typed query API, pinned five ways:
//  * engine equivalence — ExecuteBatch answers TopK / MinSeed / Evaluate
//    byte-identically to one-at-a-time Execute across worker thread
//    counts 1/2/4, and TopK equals the direct core selection path;
//  * the full nine-method roster is invocable through the engine AND
//    through parsed wire requests (the protocol's "method" field);
//  * the new MethodCompare / RuleSweep scenarios return one scored entry
//    per method (paper plotting order) resp. per voting rule;
//  * QueryOptions toggles (lazy, single_pass, evaluate_exact) and the
//    rule/version validation behave as documented;
//  * a reused worker state answers like a fresh engine, and unknown rule
//    strings share one metric series.
#include "api/engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <map>
#include <string>

#include "core/estimated_greedy.h"
#include "core/sketch.h"
#include "serve/protocol.h"

namespace voteopt::api {
namespace {

class ApiEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = ::testing::TempDir() + "/api_engine_bundle";
    dataset_ = datasets::MakeDataset(datasets::DatasetName::kTwitterMask,
                                     0.05, /*seed=*/7);
    ASSERT_TRUE(datasets::SaveDatasetBundle(dataset_, prefix_).ok());
  }
  void TearDown() override {
    for (const char* suffix : {".influence.edges", ".counts.edges",
                               ".campaigns.tsv", ".meta", ".sketch",
                               ".dynlog"}) {
      std::remove((prefix_ + suffix).c_str());
    }
  }

  EngineOptions Options(uint32_t worker_threads = 1) const {
    EngineOptions options;
    options.load.bundle_prefix = prefix_;
    options.load.build_theta = 20000;
    options.load.build_horizon = 10;
    options.load.save_built_sketch = true;
    options.load.build_threads = 2;
    options.num_worker_threads = worker_threads;
    return options;
  }

  /// The mixed batch the equivalence test pins: every PR-4 query verb,
  /// several voting rules, and one deliberate error.
  static std::vector<Request> Pr4Batch() {
    std::vector<Request> batch;
    batch.push_back(Request::TopK(5, voting::ScoreSpec::Cumulative()));
    batch.push_back(Request::TopK(4, voting::ScoreSpec::Plurality()));
    batch.push_back(Request::TopK(3, voting::ScoreSpec::Copeland()));
    batch.push_back(Request::MinSeed(24, voting::ScoreSpec::Cumulative()));
    batch.push_back(Request::Evaluate({1, 2, 3},
                                      voting::ScoreSpec::Cumulative()));
    {
      Request evaluate =
          Request::Evaluate({4, 5}, voting::ScoreSpec::Plurality());
      evaluate.rule = "borda";
      evaluate.overrides = {{0, 1.0}, {1, 0.25}};
      batch.push_back(evaluate);
    }
    batch.push_back(Request::TopK(0, voting::ScoreSpec::Cumulative()));
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].id = "q" + std::to_string(i);
    }
    return batch;
  }

  std::string prefix_;
  datasets::Dataset dataset_;
};

TEST_F(ApiEngineTest, BatchEqualsInlineExecutionAcrossThreadCounts) {
  const std::vector<Request> batch = Pr4Batch();

  // Reference: each request executed inline, one at a time, on one worker.
  auto reference = Engine::Open(Options(1));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::vector<std::string> expected;
  for (const Request& request : batch) {
    expected.push_back((*reference)->Execute(request).ToStableJson());
  }

  for (const uint32_t threads : {1u, 2u, 4u}) {
    auto engine = Engine::Open(Options(threads));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const std::vector<Response> responses = (*engine)->ExecuteBatch(batch);
    ASSERT_EQ(responses.size(), expected.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      EXPECT_EQ(responses[i].ToStableJson(), expected[i])
          << "request " << i << " diverged at --threads " << threads;
    }
  }
}

TEST_F(ApiEngineTest, TopKMatchesDirectCoreSelection) {
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Response response = (*engine)->Execute(
      Request::TopK(6, voting::ScoreSpec::Cumulative()));
  ASSERT_TRUE(response.ok) << response.error;

  // Reference: the same sketch built directly from the persisted recipe
  // and consumed by the same greedy loop — the PR-4 semantics.
  opinion::FJModel model(dataset_.influence);
  voting::ScoreEvaluator evaluator(model, dataset_.state,
                                   dataset_.default_target, /*horizon=*/10,
                                   voting::ScoreSpec::Cumulative());
  core::SketchBuildOptions build_options;
  build_options.num_threads = 2;
  auto walks = core::BuildSketchSet(evaluator, 20000, /*master_seed=*/42,
                                    build_options);
  const core::SelectionResult expected =
      core::EstimatedGreedySelect(evaluator, 6, walks.get());
  EXPECT_EQ(response.seeds, expected.seeds);
  EXPECT_DOUBLE_EQ(response.exact_score, expected.score);
}

TEST_F(ApiEngineTest, AllNineMethodsInvocableOverTheWire) {
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok());
  for (const baselines::Method method : baselines::AllMethods()) {
    // Lower-case method spelling: the codec parses case-insensitively.
    std::string name = baselines::MethodName(method);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    const std::string line = std::string("{\"op\": \"topk\", \"v\": 2, ") +
                             "\"k\": 3, \"rule\": \"plurality\", " +
                             "\"method\": \"" + name + "\"}";
    auto request = serve::ParseRequest(line);
    ASSERT_TRUE(request.ok()) << line << ": " << request.status().ToString();
    EXPECT_EQ(request->method, method);
    const Response response = (*engine)->Execute(*request);
    ASSERT_TRUE(response.ok)
        << baselines::MethodName(method) << ": " << response.error;
    EXPECT_EQ(response.seeds.size(), 3u) << baselines::MethodName(method);
    EXPECT_GT(response.exact_score, 0.0) << baselines::MethodName(method);
    // Non-RS answers name the method; the RS default stays off the wire.
    if (method == baselines::Method::kRS) {
      EXPECT_TRUE(response.method.empty());
      EXPECT_EQ(response.ToJson().find("\"method\""), std::string::npos);
    } else {
      EXPECT_EQ(response.method, baselines::MethodName(method));
      EXPECT_NE(response.ToJson().find("\"method\""), std::string::npos);
    }
  }
}

TEST_F(ApiEngineTest, MethodCompareReturnsRosterInPaperOrder) {
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok());
  const Response response = (*engine)->Execute(
      Request::MethodCompare(2, voting::ScoreSpec::Plurality()));
  ASSERT_TRUE(response.ok) << response.error;
  const auto roster = baselines::AllMethods();
  ASSERT_EQ(response.method_scores.size(), roster.size());
  for (size_t i = 0; i < roster.size(); ++i) {
    const MethodScore& entry = response.method_scores[i];
    EXPECT_EQ(entry.method, baselines::MethodName(roster[i]))
        << "entry " << i << " out of paper order";
    EXPECT_EQ(entry.seeds.size(), 2u) << entry.method;
    EXPECT_GT(entry.exact_score, 0.0) << entry.method;
  }
  // The wire form carries one object per method.
  const std::string json = response.ToJson();
  for (const baselines::Method method : roster) {
    EXPECT_NE(json.find("{\"method\": \"" +
                        std::string(baselines::MethodName(method)) + "\""),
              std::string::npos);
  }
}

TEST_F(ApiEngineTest, MethodCompareHonorsExplicitRoster) {
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok());
  Request request = Request::MethodCompare(3, voting::ScoreSpec::Cumulative());
  request.methods = {baselines::Method::kDegree, baselines::Method::kRS};
  const Response response = (*engine)->Execute(request);
  ASSERT_TRUE(response.ok) << response.error;
  ASSERT_EQ(response.method_scores.size(), 2u);
  EXPECT_EQ(response.method_scores[0].method, "DC");
  EXPECT_EQ(response.method_scores[1].method, "RS");
  // The RS entry must equal a plain RS topk on the same instance.
  const Response topk = (*engine)->Execute(
      Request::TopK(3, voting::ScoreSpec::Cumulative()));
  EXPECT_EQ(response.method_scores[1].seeds, topk.seeds);
  EXPECT_DOUBLE_EQ(response.method_scores[1].exact_score, topk.exact_score);
}

TEST_F(ApiEngineTest, RuleSweepScoresAllFiveRules) {
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok());
  const Response response = (*engine)->Execute(Request::RuleSweep(4));
  ASSERT_TRUE(response.ok) << response.error;
  ASSERT_EQ(response.rule_scores.size(), 5u);
  const char* expected_order[] = {"cumulative", "plurality", "papproval",
                                  "positional", "copeland"};
  const uint32_t r = dataset_.state.num_candidates();
  for (size_t i = 0; i < 5; ++i) {
    const RuleScore& entry = response.rule_scores[i];
    EXPECT_EQ(entry.rule, expected_order[i]);
    EXPECT_EQ(entry.seeds.size(), 4u) << entry.rule;
    EXPECT_LT(entry.winner, r) << entry.rule;
  }
  // Each rule's entry pins the same answer a dedicated topk returns.
  const Response cumulative = (*engine)->Execute(
      Request::TopK(4, voting::ScoreSpec::Cumulative()));
  EXPECT_EQ(response.rule_scores[0].seeds, cumulative.seeds);
  EXPECT_DOUBLE_EQ(response.rule_scores[0].exact_score,
                   cumulative.exact_score);
}

TEST_F(ApiEngineTest, QueryOptionTogglesPreserveAnswers) {
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok());

  // CELF lazy vs exhaustive: bit-identical seeds and estimate.
  Request topk = Request::TopK(8, voting::ScoreSpec::Cumulative());
  const Response lazy = (*engine)->Execute(topk);
  topk.options.lazy = false;
  const Response exhaustive = (*engine)->Execute(topk);
  ASSERT_TRUE(lazy.ok && exhaustive.ok);
  EXPECT_EQ(lazy.seeds, exhaustive.seeds);
  EXPECT_DOUBLE_EQ(lazy.estimated_score, exhaustive.estimated_score);
  EXPECT_GT(exhaustive.diagnostics.at("gain_evaluations"),
            lazy.diagnostics.at("gain_evaluations"));

  // Single-pass vs binary-search min-seed: identical k*, seeds, outcome.
  Request minseed = Request::MinSeed(24, voting::ScoreSpec::Cumulative());
  const Response single = (*engine)->Execute(minseed);
  minseed.options.single_pass = false;
  const Response searched = (*engine)->Execute(minseed);
  ASSERT_TRUE(single.ok && searched.ok);
  EXPECT_EQ(single.achievable, searched.achievable);
  EXPECT_EQ(single.k_star, searched.k_star);
  EXPECT_EQ(single.seeds, searched.seeds);
  EXPECT_LE(single.selector_calls, 1u);
  EXPECT_GE(searched.selector_calls, single.selector_calls);

  // evaluate_exact=false skips the final exact propagation.
  topk.options.lazy = true;
  topk.options.evaluate_exact = false;
  const Response estimated_only = (*engine)->Execute(topk);
  ASSERT_TRUE(estimated_only.ok);
  EXPECT_EQ(estimated_only.seeds, lazy.seeds);
  EXPECT_DOUBLE_EQ(estimated_only.exact_score, 0.0);
}

TEST_F(ApiEngineTest, ReusedStatesAnswerLikeFreshOnes) {
  // A pooled state resets its values on its first RS selection and undoes
  // its previous selection's cuts on every later one. Whatever a state
  // answered before, its answer must equal a fresh engine's, and every RS
  // selection still counts one sketch reset.
  std::vector<Request> batch;
  for (const voting::ScoreSpec& spec :
       {voting::ScoreSpec::Cumulative(), voting::ScoreSpec::Plurality(),
        voting::ScoreSpec::PApproval(2),
        voting::ScoreSpec::PositionalPApproval({1.0, 0.4}),
        voting::ScoreSpec::Copeland()}) {
    batch.push_back(Request::TopK(6, spec));
    batch.push_back(Request::Evaluate({1, 2, 3}, spec));
  }
  batch.push_back(Request::MinSeed(24, voting::ScoreSpec::Cumulative()));
  {
    Request searched = Request::MinSeed(24, voting::ScoreSpec::Cumulative());
    searched.options.single_pass = false;
    batch.push_back(searched);
  }
  batch.push_back(Request::RuleSweep(4));
  {
    Request compare =
        Request::MethodCompare(5, voting::ScoreSpec::Cumulative());
    compare.methods = {baselines::Method::kRS, baselines::Method::kDegree};
    batch.push_back(compare);
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].id = "r" + std::to_string(i);
    batch[i].trace = true;  // reports work.sketch_resets
  }

  std::vector<std::string> expected;
  for (const Request& request : batch) {
    auto fresh = Engine::Open(Options(1));
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    const Response response = (*fresh)->Execute(request);
    ASSERT_TRUE(response.ok) << request.id << ": " << response.error;
    expected.push_back(response.ToStableJson());
  }

  auto engine = Engine::Open(Options(4));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  double selections = 0;
  for (int round = 0; round < 3; ++round) {
    const std::vector<Response> responses = (*engine)->ExecuteBatch(batch);
    ASSERT_EQ(responses.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const Response& response = responses[i];
      EXPECT_EQ(response.ToStableJson(), expected[i])
          << "request " << batch[i].id << " in round " << round;
      // One reset per RS selection: a topk or a methodcompare with RS runs
      // one, a rulesweep five, a minseed one per selector call.
      double rs_selections = 0;
      switch (batch[i].op) {
        case Request::Op::kTopK:
        case Request::Op::kMethodCompare:
          rs_selections = 1;
          break;
        case Request::Op::kRuleSweep:
          rs_selections = 5;
          break;
        case Request::Op::kMinSeed:
          rs_selections = response.selector_calls;
          break;
        default:
          break;
      }
      const auto resets = response.diagnostics.find("work.sketch_resets");
      EXPECT_EQ(resets == response.diagnostics.end() ? 0.0 : resets->second,
                rs_selections)
          << "request " << batch[i].id;
      selections += rs_selections;
    }
  }
  const Engine::Stats stats = (*engine)->stats();
  EXPECT_EQ(static_cast<double>(stats.sketch_resets), selections);
  // At most one state per worker: most selections ran on a reused state.
  EXPECT_LE(stats.worker_states, 4u);
}

TEST_F(ApiEngineTest, UnknownRulesShareOneSeries) {
  // The rule label comes from a closed vocabulary: a known spelling keeps
  // its label, and every unknown one counts under rule="invalid".
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok());
  Request stats_request;
  stats_request.op = Request::Op::kStats;
  stats_request.v = 3;
  const auto series = [&] {
    const Response stats = (*engine)->Execute(stats_request);
    EXPECT_TRUE(stats.ok) << stats.error;
    std::map<std::string, double> queries;
    for (const auto& [name, value] : stats.stats) {
      if (name.rfind("voteopt_queries_total{", 0) == 0) queries[name] = value;
    }
    return queries;
  };
  ASSERT_TRUE((*engine)->Execute(
      Request::TopK(3, voting::ScoreSpec::Cumulative())).ok);
  series();  // registers the stats verb's own series
  const std::map<std::string, double> before = series();
  EXPECT_EQ(before.count(
                R"(voteopt_queries_total{method="RS",op="topk",rule="cumulative"})"),
            1u);

  for (int i = 0; i < 2000; ++i) {
    Request request = Request::TopK(3, voting::ScoreSpec::Cumulative());
    request.rule = "no-such-rule-" + std::to_string(i);
    const Response response = (*engine)->Execute(request);
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error.rfind("InvalidArgument", 0), 0u)
        << response.error;
  }
  const std::map<std::string, double> after = series();
  EXPECT_LE(after.size(), before.size() + 1);
  EXPECT_EQ(after.at(
                R"(voteopt_queries_total{method="RS",op="topk",rule="invalid"})"),
            2000.0);
}

TEST_F(ApiEngineTest, ResolveRuleValidatesBordaAndEnumeratesRules) {
  // Borda weights are undefined for a single-candidate walkover.
  const auto walkover = ResolveRule("borda", 1, {}, /*num_candidates=*/1);
  ASSERT_FALSE(walkover.ok());
  EXPECT_EQ(walkover.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(walkover.status().message().find("borda"), std::string::npos);

  const auto two = ResolveRule("borda", 1, {}, /*num_candidates=*/2);
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two->kind, voting::ScoreKind::kPositionalPApproval);
  EXPECT_EQ(two->omega, (std::vector<double>{1.0, 0.0}));

  // Unknown rules enumerate the vocabulary.
  const auto unknown = ResolveRule("frobnicate", 1, {}, 4);
  ASSERT_FALSE(unknown.ok());
  for (const char* rule : {"cumulative", "plurality", "papproval",
                           "positional", "copeland", "borda"}) {
    EXPECT_NE(unknown.status().message().find(rule), std::string::npos);
  }
}

TEST_F(ApiEngineTest, BordaOverTheWireUsesTheDatasetCandidateCount) {
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok());
  auto request = serve::ParseRequest(
      R"({"op": "topk", "k": 3, "rule": "borda"})");
  ASSERT_TRUE(request.ok());
  const Response response = (*engine)->Execute(*request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.seeds.size(), 3u);
  // r = 2 here, so borda == plurality: identical selections.
  const Response plurality = (*engine)->Execute(
      Request::TopK(3, voting::ScoreSpec::Plurality()));
  EXPECT_EQ(response.seeds, plurality.seeds);
}

TEST_F(ApiEngineTest, UnsupportedVersionFailsCleanly) {
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok());
  Request request = Request::TopK(2, voting::ScoreSpec::Cumulative());
  request.v = kProtocolVersion + 1;
  const Response response = (*engine)->Execute(request);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("unsupported protocol version"),
            std::string::npos);
  request.v = kProtocolVersion;
  EXPECT_TRUE((*engine)->Execute(request).ok);
}

TEST_F(ApiEngineTest, EvaluateRejectsANanOverride) {
  // The wire codec cannot spell NaN, but a typed caller can; NaN passes
  // both halves of a plain [0, 1] range test.
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok());
  Request request = Request::Evaluate({1, 2}, voting::ScoreSpec::Cumulative());
  request.overrides = {{3, std::numeric_limits<double>::quiet_NaN()}};
  const Response response = (*engine)->Execute(request);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error.rfind("InvalidArgument", 0), 0u) << response.error;
  request.overrides = {{3, 0.5}};
  EXPECT_TRUE((*engine)->Execute(request).ok);
}

TEST_F(ApiEngineTest, TraceIsAnAdditiveSideChannel) {
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok());

  // The determinism ledger: a traced request and its untraced twin return
  // byte-identical stable answers — tracing observes, it never perturbs.
  for (Request request : Pr4Batch()) {
    request.trace = false;
    const Response untraced = (*engine)->Execute(request);
    request.trace = true;
    const Response traced = (*engine)->Execute(request);
    EXPECT_EQ(traced.ToStableJson(), untraced.ToStableJson())
        << "request " << request.id << " diverged under trace";
    EXPECT_FALSE(untraced.traced);
    EXPECT_EQ(untraced.ToJson().find("diagnostics"), std::string::npos);
    if (traced.ok) {
      EXPECT_TRUE(traced.traced);
    }
  }

  // A traced RS topk reports the stage schema and the work counts.
  Request topk = Request::TopK(5, voting::ScoreSpec::Cumulative());
  topk.trace = true;
  const Response response = (*engine)->Execute(topk);
  ASSERT_TRUE(response.ok) << response.error;
  for (const char* stage :
       {"stage.dispatch_ms", "stage.state_lease_ms", "stage.selection_ms",
        "stage.evaluation_ms"}) {
    ASSERT_TRUE(response.diagnostics.count(stage)) << stage;
    EXPECT_GE(response.diagnostics.at(stage), 0.0) << stage;
  }
  EXPECT_TRUE(response.diagnostics.count("work.sketch_resets"));
  EXPECT_TRUE(response.diagnostics.count("work.gain_evaluations"));
  // The bare pre-v3 spelling is gone; selector work lives under work. only.
  EXPECT_FALSE(response.diagnostics.count("gain_evaluations"));

  // A traced minseed reports its selector-call work count.
  Request minseed = Request::MinSeed(24, voting::ScoreSpec::Cumulative());
  minseed.trace = true;
  const Response min_response = (*engine)->Execute(minseed);
  ASSERT_TRUE(min_response.ok) << min_response.error;
  EXPECT_EQ(min_response.diagnostics.at("work.selector_calls"),
            static_cast<double>(min_response.selector_calls));
}

TEST_F(ApiEngineTest, SlowQueryLogFiresAtThresholdWithStages) {
  EngineOptions options = Options();
  options.slow_query_millis = 0.0;  // every query is "slow"
  auto engine = Engine::Open(options);
  ASSERT_TRUE(engine.ok());

  ::testing::internal::CaptureStderr();
  Request request = Request::TopK(3, voting::ScoreSpec::Cumulative());
  request.id = "slowq";
  const Response response = (*engine)->Execute(request);
  const std::string log = ::testing::internal::GetCapturedStderr();
  ASSERT_TRUE(response.ok) << response.error;

  // One structured line: identity, timing, and the stage breakdown — even
  // though the client did not opt into wire-level tracing.
  EXPECT_NE(log.find("\"slow_query\": true"), std::string::npos) << log;
  EXPECT_NE(log.find("\"op\": \"topk\""), std::string::npos);
  EXPECT_NE(log.find("\"id\": \"slowq\""), std::string::npos);
  EXPECT_NE(log.find("\"threshold_millis\": 0"), std::string::npos);
  EXPECT_NE(log.find("stage.selection_ms"), std::string::npos);
  EXPECT_FALSE(response.traced);  // the log is not the wire side channel

  // Disarmed (the default -1): silence.
  auto quiet = Engine::Open(Options());
  ASSERT_TRUE(quiet.ok());
  ::testing::internal::CaptureStderr();
  ASSERT_TRUE((*quiet)->Execute(request).ok);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST_F(ApiEngineTest, EdgeCommitRecordsEveryCommitStage) {
  auto engine = Engine::Open(Options());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Response commit = (*engine)->Execute(Request::EdgeAdd(0, 33, 2.0));
  ASSERT_TRUE(commit.ok) << commit.error;
  ASSERT_GT(commit.walks_repaired, 0u);

  const auto stats = (*engine)->metrics().Snapshot();
  for (const char* stage : {"patch", "fingerprint", "journal", "publish"}) {
    const std::string key =
        std::string("voteopt_dyn_commit_stage_seconds_count{stage=\"") +
        stage + "\"}";
    const auto it = stats.find(key);
    ASSERT_NE(it, stats.end()) << key;
    EXPECT_EQ(it->second, 1.0) << key;
  }
}

TEST_F(ApiEngineTest, HostsInMemoryDatasetsWithTargetOverride) {
  auto engine = Engine::Open({});  // empty registry, no bootstrap
  ASSERT_TRUE(engine.ok());
  HostOptions host;
  host.theta = 5000;
  host.horizon = 10;
  host.target = 1;
  ASSERT_TRUE((*engine)->Host("mem", dataset_, host).ok());
  EXPECT_EQ((*engine)->sketch_meta().target, 1u);
  EXPECT_EQ((*engine)->sketch_meta().theta, 5000u);

  const Response response = (*engine)->Execute(
      Request::TopK(3, voting::ScoreSpec::Cumulative()));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.dataset, "mem");
  EXPECT_EQ(response.seeds.size(), 3u);

  // Same name twice: FailedPrecondition, like a double protocol load.
  EXPECT_FALSE((*engine)->Host("mem", dataset_, host).ok());
  // Out-of-range target override: clean error, no assert.
  host.target = 99;
  EXPECT_FALSE((*engine)->Host("mem2", dataset_, host).ok());
}

TEST_F(ApiEngineTest, HostBuildsIdenticalSketchThroughOocPath) {
  // block_budget_bytes routes the inline build through sketch_ooc/; every
  // answer must match the in-memory build bit-for-bit (ledger entry 7
  // surfaced at the api layer).
  auto mem_engine = Engine::Open({});
  auto ooc_engine = Engine::Open({});
  ASSERT_TRUE(mem_engine.ok() && ooc_engine.ok());
  HostOptions host;
  host.theta = 8000;
  host.horizon = 8;
  ASSERT_TRUE((*mem_engine)->Host("mem", dataset_, host).ok());
  host.block_budget_bytes = 4096;  // forces several blocks at this scale
  ASSERT_TRUE((*ooc_engine)->Host("mem", dataset_, host).ok());

  // Server-side timing is the one legitimately nondeterministic field.
  const auto strip_millis = [](std::string json) {
    const size_t at = json.find(", \"millis\":");
    if (at != std::string::npos) json.resize(at);
    return json;
  };
  for (const auto& request : Pr4Batch()) {
    const Response a = (*mem_engine)->Execute(request);
    const Response b = (*ooc_engine)->Execute(request);
    EXPECT_EQ(strip_millis(a.ToJson()), strip_millis(b.ToJson()))
        << "request " << request.id;
  }
}

}  // namespace
}  // namespace voteopt::api
