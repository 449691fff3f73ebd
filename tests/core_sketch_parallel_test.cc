// Sharded BuildSketchSet: determinism across runs and thread counts, and
// agreement of its score estimates with the exact score within epsilon.
#include <gtest/gtest.h>

#include <memory>

#include "core/estimated_greedy.h"
#include "core/rs_greedy.h"
#include "core/sketch.h"
#include "opinion/fj_model.h"
#include "test_fixtures.h"

namespace voteopt::core {
namespace {

using test::MakePaperExample;
using test::MakeRandomInstance;

// Three full blocks plus a partial one, so a pooled build really fans out.
constexpr uint64_t kMultiBlockTheta = 3 * kSketchBlockWalks + 17;

// Exhaustive structural equality of two finalized walk sets.
void ExpectIdenticalWalkSets(const WalkSet& a, const WalkSet& b) {
  ASSERT_EQ(a.num_walks(), b.num_walks());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (uint32_t w = 0; w < a.num_walks(); ++w) {
    EXPECT_EQ(a.StartOf(w), b.StartOf(w)) << "walk " << w;
    EXPECT_EQ(a.EffectiveLen(w), b.EffectiveLen(w)) << "walk " << w;
    EXPECT_EQ(a.Value(w), b.Value(w)) << "walk " << w;
  }
  for (graph::NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.Lambda(v), b.Lambda(v)) << "node " << v;
    EXPECT_EQ(a.StartWeight(v), b.StartWeight(v)) << "node " << v;
    EXPECT_EQ(a.PostingsOf(v).size(), b.PostingsOf(v).size()) << "node " << v;
  }
}

TEST(ParallelSketchTest, BitIdenticalAcrossRuns) {
  auto inst = MakeRandomInstance(50, 250, 2, 23);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 6, voting::ScoreSpec::Cumulative());
  SketchBuildOptions options;
  options.num_threads = 4;
  const auto first =
      BuildSketchSet(ev, kMultiBlockTheta, /*master_seed=*/99, options);
  const auto second =
      BuildSketchSet(ev, kMultiBlockTheta, /*master_seed=*/99, options);
  ExpectIdenticalWalkSets(*first, *second);
}

TEST(ParallelSketchTest, OutputIndependentOfThreadCount) {
  auto inst = MakeRandomInstance(50, 250, 2, 29);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 6, voting::ScoreSpec::Cumulative());
  SketchBuildOptions serial_options;
  serial_options.num_threads = 1;
  SketchBuildOptions parallel_options;
  parallel_options.num_threads = 3;
  const auto inline_build =
      BuildSketchSet(ev, kMultiBlockTheta, 7, serial_options);
  const auto pooled_build =
      BuildSketchSet(ev, kMultiBlockTheta, 7, parallel_options);
  ExpectIdenticalWalkSets(*inline_build, *pooled_build);
}

TEST(ParallelSketchTest, DifferentSeedsDiffer) {
  auto inst = MakeRandomInstance(50, 250, 2, 31);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 6, voting::ScoreSpec::Cumulative());
  SketchBuildOptions options;
  options.num_threads = 2;
  const auto a = BuildSketchSet(ev, 2000, 1, options);
  const auto b = BuildSketchSet(ev, 2000, 2, options);
  // Start nodes are resampled per seed; a collision of all 2000 is
  // practically impossible.
  bool any_difference = false;
  for (uint32_t w = 0; w < a->num_walks() && !any_difference; ++w) {
    any_difference = a->StartOf(w) != b->StartOf(w);
  }
  EXPECT_TRUE(any_difference);
}

TEST(ParallelSketchTest, PooledWeightsFollowEq35) {
  // A multi-block pooled build keeps the n * lambda_v / theta weighting.
  auto inst = MakeRandomInstance(30, 150, 2, 3);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 4, voting::ScoreSpec::Cumulative());
  SketchBuildOptions options;
  options.num_threads = 2;
  const auto walks = BuildSketchSet(ev, kMultiBlockTheta, 5, options);
  EXPECT_EQ(walks->num_walks(), kMultiBlockTheta);
  const double theta = static_cast<double>(kMultiBlockTheta);
  double total = 0.0;
  for (graph::NodeId v = 0; v < 30; ++v) {
    total += walks->StartWeight(v);
    EXPECT_NEAR(walks->StartWeight(v), 30.0 * walks->Lambda(v) / theta,
                1e-12);
  }
  EXPECT_NEAR(total, 30.0, 1e-9);
}

TEST(ParallelSketchTest, GreedyEstimateWithinEpsilonOfExact) {
  // Thm. 13-style agreement on the paper's running example: with a healthy
  // theta, the estimated greedy score from the sharded builder must agree
  // with the exact best single-seed score (Table I row {1}: 3.30 at t = 1)
  // within epsilon * OPT.
  constexpr double kEpsilon = 0.1;
  constexpr double kExactBest = 3.30;
  auto ex = MakePaperExample();
  opinion::FJModel model(ex.graph);
  ScoreEvaluator ev(model, ex.state, 0, 1, voting::ScoreSpec::Cumulative());
  const uint64_t theta = 20000;

  SketchBuildOptions options;
  options.num_threads = 4;
  auto walks = BuildSketchSet(ev, theta, /*master_seed=*/123, options);

  EstimatedGreedyOptions greedy_options;
  greedy_options.evaluate_exact = false;
  const SelectionResult result =
      EstimatedGreedySelect(ev, 1, walks.get(), greedy_options);

  EXPECT_NEAR(result.score, kExactBest, kEpsilon * kExactBest);
  // Must pick user 1 (node 0).
  EXPECT_EQ(result.seeds, std::vector<graph::NodeId>{0});
}

TEST(ParallelSketchTest, RSGreedySeedsInvariantAcrossThreadCounts) {
  // Every thread count (including the hardware-default 0) must produce
  // identical seeds and scores: both the sketch build and the gain scan
  // are thread-count invariant.
  auto inst = MakeRandomInstance(60, 320, 2, 37);
  opinion::FJModel model(inst.graph);
  for (const auto kind :
       {voting::ScoreKind::kCumulative, voting::ScoreKind::kPlurality,
        voting::ScoreKind::kCopeland}) {
    voting::ScoreSpec spec;
    spec.kind = kind;
    ScoreEvaluator ev(model, inst.state, 0, 5, spec);

    RSOptions base;
    base.theta_override = 4096;
    base.rng_seed = 77;
    base.num_threads = 1;
    const SelectionResult reference = RSGreedySelect(ev, 6, base);
    ASSERT_EQ(reference.seeds.size(), 6u) << voting::ScoreKindName(kind);

    for (const uint32_t threads : {2u, 4u, 0u}) {
      RSOptions options = base;
      options.num_threads = threads;
      const SelectionResult result = RSGreedySelect(ev, 6, options);
      EXPECT_EQ(result.seeds, reference.seeds)
          << voting::ScoreKindName(kind) << " threads=" << threads;
      EXPECT_DOUBLE_EQ(result.score, reference.score)
          << voting::ScoreKindName(kind) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace voteopt::core
