// Integration coverage for the offline-build -> persist -> serve workflow:
// a bundle + sketch are persisted to disk, an api::Engine loads them in a
// fresh "process" (object), and a mixed batch of top-k / min-seed /
// evaluate queries is answered from the one loaded store.
#include "api/engine.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/estimated_greedy.h"
#include "core/min_seed.h"
#include "core/sketch.h"
#include "store/sketch_store.h"

namespace voteopt::api {
namespace {

class ServeServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = ::testing::TempDir() + "/serve_bundle";
    dataset_ = datasets::MakeDataset(datasets::DatasetName::kTwitterMask,
                                     0.05, /*seed=*/7);
    ASSERT_TRUE(datasets::SaveDatasetBundle(dataset_, prefix_).ok());
  }
  void TearDown() override {
    for (const char* suffix : {".influence.edges", ".counts.edges",
                               ".campaigns.tsv", ".meta", ".sketch"}) {
      std::remove((prefix_ + suffix).c_str());
    }
  }

  EngineOptions DefaultOptions() const {
    EngineOptions options;
    options.load.bundle_prefix = prefix_;
    options.load.build_theta = 20000;
    options.load.build_horizon = 10;
    options.load.save_built_sketch = true;
    options.load.build_threads = 2;
    // One worker: batches execute sequentially on a single pooled state,
    // which keeps the evaluator-LRU expectations below deterministic.
    options.num_worker_threads = 1;
    return options;
  }

  static Request MakeRequest(Request::Op op) {
    Request request;
    request.op = op;
    return request;
  }

  std::string prefix_;
  datasets::Dataset dataset_;
};

TEST_F(ServeServiceTest, BuildsPersistsAndServesMixedBatch) {
  // First open: no sketch on disk, so the engine builds and persists one.
  auto built = Engine::Open(DefaultOptions());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_TRUE((*built)->stats().sketch_built);

  // Second open simulates the online process: it must load the persisted
  // artifact, not rebuild.
  auto engine = Engine::Open(DefaultOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_FALSE((*engine)->stats().sketch_built);
  EXPECT_TRUE((*engine)->walks().adopted());
  EXPECT_EQ((*engine)->sketch_meta().theta, 20000u);

  std::vector<Request> batch;
  batch.push_back(MakeRequest(Request::Op::kTopK));
  batch.back().k = 5;
  batch.push_back(MakeRequest(Request::Op::kTopK));
  batch.back().k = 5;
  batch.back().rule = "plurality";
  batch.push_back(MakeRequest(Request::Op::kMinSeed));
  batch.back().k_max = 64;
  batch.push_back(MakeRequest(Request::Op::kEvaluate));
  batch.back().seeds = {1, 2, 3};
  batch.push_back(MakeRequest(Request::Op::kEvaluate));
  batch.back().seeds = {1, 2, 3};
  batch.back().overrides = {{0, 1.0}};

  const std::vector<Response> responses = (*engine)->ExecuteBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (const Response& response : responses) {
    EXPECT_TRUE(response.ok) << response.error;
  }
  EXPECT_EQ(responses[0].seeds.size(), 5u);
  EXPECT_GT(responses[0].exact_score, 0.0);
  EXPECT_EQ(responses[1].seeds.size(), 5u);
  // Different voting rules must be allowed to pick different seeds; at
  // minimum both selections answer from the same loaded sketch.
  EXPECT_GT(responses[2].selector_calls, 0u);
  EXPECT_EQ(responses[3].all_scores.size(),
            dataset_.state.num_candidates());
  // Forcing user 0's opinion to 1 can only help the target.
  EXPECT_GE(responses[4].score, responses[3].score);

  const auto stats = (*engine)->stats();
  EXPECT_EQ(stats.queries, batch.size());
  EXPECT_EQ(stats.errors, 0u);
  // 5 queries over 3 distinct rules: the evaluator LRU must have hits.
  EXPECT_GT(stats.evaluator_cache_hits, 0u);
  EXPECT_EQ(stats.evaluator_cache_misses, 2u);  // cumulative + plurality
  EXPECT_GT(stats.sketch_resets, 0u);
}

TEST_F(ServeServiceTest, TopKMatchesDirectSketchSelection) {
  auto engine = Engine::Open(DefaultOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  Request request = MakeRequest(Request::Op::kTopK);
  request.k = 6;
  const Response response = (*engine)->Execute(request);
  ASSERT_TRUE(response.ok) << response.error;

  // Reference: the same sketch built directly from the persisted file's
  // recipe and consumed by the same greedy loop.
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

TEST_F(ServeServiceTest, RepeatedQueriesAreDeterministic) {
  auto engine = Engine::Open(DefaultOptions());
  ASSERT_TRUE(engine.ok());
  Request request = MakeRequest(Request::Op::kTopK);
  request.k = 4;
  request.rule = "copeland";
  const Response first = (*engine)->Execute(request);
  const Response second = (*engine)->Execute(request);
  ASSERT_TRUE(first.ok && second.ok);
  EXPECT_EQ(first.seeds, second.seeds);
  EXPECT_DOUBLE_EQ(first.exact_score, second.exact_score);
}

TEST_F(ServeServiceTest, ErrorsAreResponsesNotCrashes) {
  auto engine = Engine::Open(DefaultOptions());
  ASSERT_TRUE(engine.ok());

  Request bad_rule = MakeRequest(Request::Op::kTopK);
  bad_rule.k = 3;
  bad_rule.rule = "frobnicate";
  EXPECT_FALSE((*engine)->Execute(bad_rule).ok);

  Request bad_k = MakeRequest(Request::Op::kTopK);
  bad_k.k = 0;
  EXPECT_FALSE((*engine)->Execute(bad_k).ok);

  Request bad_seed = MakeRequest(Request::Op::kEvaluate);
  bad_seed.seeds = {dataset_.influence.num_nodes() + 5};
  EXPECT_FALSE((*engine)->Execute(bad_seed).ok);

  Request bad_override = MakeRequest(Request::Op::kEvaluate);
  bad_override.overrides = {{0, 1.5}};
  EXPECT_FALSE((*engine)->Execute(bad_override).ok);

  // The engine stays healthy after errors.
  Request good = MakeRequest(Request::Op::kTopK);
  good.k = 2;
  EXPECT_TRUE((*engine)->Execute(good).ok);
  EXPECT_EQ((*engine)->stats().errors, 4u);
}

TEST_F(ServeServiceTest, MinSeedMatchesAlgorithmTwo) {
  auto engine = Engine::Open(DefaultOptions());
  ASSERT_TRUE(engine.ok());
  Request request = MakeRequest(Request::Op::kMinSeed);
  request.k_max = 32;
  const Response response = (*engine)->Execute(request);
  ASSERT_TRUE(response.ok) << response.error;
  if (response.achievable && response.k_star > 0) {
    EXPECT_EQ(response.seeds.size(), response.k_star);
    // The returned budget must actually win.
    opinion::FJModel model(dataset_.influence);
    voting::ScoreEvaluator evaluator(model, dataset_.state,
                                     dataset_.default_target, /*horizon=*/10,
                                     voting::ScoreSpec::Cumulative());
    EXPECT_TRUE(core::TargetWins(evaluator, response.seeds));
  }
}

TEST_F(ServeServiceTest, MissingBundleFailsCleanly) {
  EngineOptions options = DefaultOptions();
  options.load.bundle_prefix = prefix_ + "-nope";
  auto engine = Engine::Open(options);
  EXPECT_FALSE(engine.ok());
}

TEST_F(ServeServiceTest, MissingSketchWithoutBuildFallbackFails) {
  EngineOptions options = DefaultOptions();
  options.load.build_theta = 0;  // no fallback build allowed
  auto engine = Engine::Open(options);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), Status::Code::kIOError);
}

TEST_F(ServeServiceTest, StaleSketchForRegeneratedBundleRejected) {
  // Build + persist against the current bundle, then regenerate the bundle
  // with the SAME node count but a different seed: node-count and target
  // checks both pass, so only the fingerprint can catch the staleness.
  auto built = Engine::Open(DefaultOptions());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const datasets::Dataset regenerated = datasets::MakeDataset(
      datasets::DatasetName::kTwitterMask, 0.05, /*seed=*/8);
  ASSERT_EQ(regenerated.influence.num_nodes(),
            dataset_.influence.num_nodes());
  ASSERT_TRUE(datasets::SaveDatasetBundle(regenerated, prefix_).ok());
  auto engine = Engine::Open(DefaultOptions());
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), Status::Code::kFailedPrecondition);
}

TEST_F(ServeServiceTest, MismatchedSketchRejected) {
  // Persist a sketch for a DIFFERENT (smaller) dataset under this bundle's
  // sketch path; Open must refuse to serve from it.
  const datasets::Dataset other = datasets::MakeDataset(
      datasets::DatasetName::kTwitterMask, 0.02, /*seed=*/8);
  opinion::FJModel model(other.influence);
  voting::ScoreEvaluator evaluator(model, other.state, other.default_target,
                                   /*horizon=*/10,
                                   voting::ScoreSpec::Cumulative());
  core::SketchBuildOptions build_options;
  build_options.num_threads = 1;
  auto walks = core::BuildSketchSet(evaluator, 1000, 1, build_options);
  ASSERT_TRUE(store::SaveSketch(*walks, {1000, 10, 0, 1},
                                datasets::BundleSketchPath(prefix_))
                  .ok());
  auto engine = Engine::Open(DefaultOptions());
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), Status::Code::kFailedPrecondition);
}

}  // namespace
}  // namespace voteopt::api
