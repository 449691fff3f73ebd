#include "core/sketch.h"

#include "core/accuracy.h"

#include <gtest/gtest.h>

#include "core/estimated_greedy.h"
#include "core/greedy_dm.h"
#include "core/rs_greedy.h"
#include "test_fixtures.h"
#include "util/stats.h"

namespace voteopt::core {
namespace {

using test::MakePaperExample;
using test::MakeRandomInstance;

TEST(SketchSetTest, HasThetaWalksWithScaledWeights) {
  auto inst = MakeRandomInstance(30, 150, 2, 3);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 4, voting::ScoreSpec::Cumulative());
  SketchBuildOptions inline_build;
  inline_build.num_threads = 1;
  auto walks = BuildSketchSet(ev, 500, /*master_seed=*/5, inline_build);
  EXPECT_EQ(walks->num_walks(), 500u);
  // Start weights are n * lambda_v / theta; they sum to n.
  double total = 0.0;
  for (graph::NodeId v = 0; v < 30; ++v) {
    if (walks->Lambda(v) > 0) total += walks->StartWeight(v);
    EXPECT_NEAR(walks->StartWeight(v), 30.0 * walks->Lambda(v) / 500.0,
                1e-12);
  }
  EXPECT_NEAR(total, 30.0, 1e-9);
}

TEST(SketchSetTest, CumulativeEstimatorIsUnbiased) {
  // Eq. 35: F-hat = (n/theta) * sum of walk values approximates F(empty).
  auto ex = MakePaperExample();
  opinion::FJModel model(ex.graph);
  ScoreEvaluator ev(model, ex.state, 0, 1, voting::ScoreSpec::Cumulative());
  const double exact = 2.55;  // Table I row {}
  Rng seeds(7);
  SketchBuildOptions inline_build;
  inline_build.num_threads = 1;
  RunningStat stat;
  for (int rep = 0; rep < 200; ++rep) {
    // A fresh master seed per repetition: independent sketches.
    auto walks = BuildSketchSet(ev, 64, seeds.Next(), inline_build);
    double estimate = 0.0;
    for (graph::NodeId v = 0; v < 4; ++v) {
      if (walks->Lambda(v) > 0) {
        estimate += walks->StartWeight(v) * walks->EstimatedOpinion(v);
      }
    }
    stat.Add(estimate);
  }
  EXPECT_NEAR(stat.mean(), exact, 0.05);
}

TEST(ThetaFormulaTest, MonotoneInParameters) {
  // Eq. 40: theta grows as epsilon shrinks, as OPT shrinks, as l grows.
  const double base = ThetaForCumulative(1000, 10, 0.1, 1.0, 500.0);
  EXPECT_GT(ThetaForCumulative(1000, 10, 0.05, 1.0, 500.0), base);
  EXPECT_GT(ThetaForCumulative(1000, 10, 0.1, 2.0, 500.0), base);
  EXPECT_GT(ThetaForCumulative(1000, 10, 0.1, 1.0, 250.0), base);
  EXPECT_GT(base, 0.0);
}

TEST(OptLowerBoundTest, AtLeastEmptySetScoreAndK) {
  auto inst = MakeRandomInstance(40, 200, 2, 11);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 4, voting::ScoreSpec::Cumulative());
  const double lb = CumulativeOptLowerBound(ev, 25);
  EXPECT_GE(lb, 25.0);  // k seeds pin k opinions at 1
  EXPECT_GE(lb, ev.EvaluateSeeds({}) - 1e-9);
  EXPECT_LE(lb, 40.0);  // OPT <= n
}

TEST(OptLowerBoundTest, RefinementNeverLowersBound) {
  auto inst = MakeRandomInstance(30, 150, 2, 13);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 3, voting::ScoreSpec::Cumulative());
  const double fallback = CumulativeOptLowerBound(ev, 3);
  Rng rng(17);
  const double refined = RefineOptLowerBound(ev, 3, 0.2, fallback, &rng);
  EXPECT_GE(refined, fallback);
  EXPECT_LE(refined, 30.0 + 1e-9);
}

TEST(ThetaConvergenceTest, ReturnsWithinCap) {
  auto inst = MakeRandomInstance(40, 200, 3, 19);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 3, voting::ScoreSpec::Plurality());
  const uint64_t theta =
      EstimateThetaByConvergence(ev, 3, 32, 4096, 0.05, 23);
  EXPECT_GE(theta, 32u);
  EXPECT_LE(theta, 4096u);
}

TEST(RSGreedyTest, PaperExampleFindsGoodSeed) {
  auto ex = MakePaperExample();
  opinion::FJModel model(ex.graph);
  ScoreEvaluator ev(model, ex.state, 0, 1, voting::ScoreSpec::Cumulative());
  RSOptions options;
  options.theta_override = 4000;
  const auto result = RSGreedySelect(ev, 1, options);
  ASSERT_EQ(result.seeds.size(), 1u);
  EXPECT_EQ(result.seeds[0], 0u);  // node 0 is the best cumulative seed
  EXPECT_NEAR(result.score, 3.30, 1e-9);
}

TEST(RSGreedyTest, CumulativeThetaFromTheoremThirteen) {
  auto inst = MakeRandomInstance(50, 250, 2, 29);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 4, voting::ScoreSpec::Cumulative());
  RSOptions options;
  options.epsilon = 0.3;  // keep theta small for the test
  options.theta_cap = 1u << 16;
  const auto result = RSGreedySelect(ev, 3, options);
  EXPECT_EQ(result.seeds.size(), 3u);
  EXPECT_GT(result.diagnostics.at("theta"), 0.0);
  EXPECT_GT(result.diagnostics.at("opt_lower_bound"), 0.0);
  EXPECT_GE(result.score, ev.EvaluateSeeds({}));
}

TEST(RSGreedyTest, RankScoresUseConvergenceHeuristic) {
  auto inst = MakeRandomInstance(40, 200, 3, 31);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 3, voting::ScoreSpec::Copeland());
  RSOptions options;
  options.theta_start = 64;
  options.theta_cap = 2048;
  const auto result = RSGreedySelect(ev, 2, options);
  EXPECT_EQ(result.seeds.size(), 2u);
  EXPECT_GE(result.diagnostics.at("theta"), 64.0);
  EXPECT_LE(result.diagnostics.at("theta"), 2048.0);
}

TEST(RSGreedyTest, LargerThetaTracksExactGreedyBetter) {
  auto inst = MakeRandomInstance(60, 320, 2, 37, /*max_stubbornness=*/0.8);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 4, voting::ScoreSpec::Cumulative());
  const double exact = GreedyDMSelect(ev, 3).score;

  auto run = [&](uint64_t theta) {
    RSOptions options;
    options.theta_override = theta;
    return RSGreedySelect(ev, 3, options).score;
  };
  // Average over a few runs to smooth randomness.
  double small = 0.0, large = 0.0;
  for (uint64_t s = 0; s < 5; ++s) {
    RSOptions o_small, o_large;
    o_small.theta_override = 60;
    o_small.rng_seed = 100 + s;
    o_large.theta_override = 6000;
    o_large.rng_seed = 200 + s;
    small += RSGreedySelect(ev, 3, o_small).score;
    large += RSGreedySelect(ev, 3, o_large).score;
  }
  small /= 5;
  large /= 5;
  EXPECT_GE(large, small - 0.5);  // more sketches should not be much worse
  EXPECT_GE(large, 0.93 * exact);
  (void)run;
}

}  // namespace
}  // namespace voteopt::core
