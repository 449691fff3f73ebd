// The lazy (CELF) cumulative path and the parallel rank-sensitive gain
// scan are pure evaluation-order optimizations: their selected seeds, the
// estimated score, and the exact score must be bit-identical to the
// exhaustive serial scan — including under heavy gain ties, where only the
// deterministic (gain, node id) ordering keeps the paths aligned.
#include <gtest/gtest.h>

#include "core/estimated_greedy.h"
#include "core/sketch.h"
#include "core/walk_engine.h"
#include "core/walk_set.h"
#include "graph/alias_table.h"
#include "test_fixtures.h"

namespace voteopt::core {
namespace {

using test::MakeRandomInstance;

WalkSet MakeWalks(const ScoreEvaluator& ev, uint32_t lambda, uint64_t seed) {
  const graph::Graph& g = ev.model().graph();
  graph::AliasSampler alias(g);
  WalkEngine engine(g, ev.target_campaign(), alias);
  Rng rng(seed);
  WalkSet walks(g.num_nodes());
  std::vector<graph::NodeId> scratch;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (uint32_t j = 0; j < lambda; ++j) {
      engine.Generate(v, ev.horizon(), &rng, &scratch);
      walks.AddWalk(scratch);
    }
  }
  walks.Finalize(ev.target_campaign().initial_opinions);
  return walks;
}

voting::ScoreSpec SpecFor(voting::ScoreKind kind) {
  voting::ScoreSpec spec;
  spec.kind = kind;
  if (kind == voting::ScoreKind::kPApproval) spec.p = 2;
  if (kind == voting::ScoreKind::kPositionalPApproval) {
    spec = voting::ScoreSpec::PositionalPApproval({1.0, 0.4});
  }
  return spec;
}

SelectionResult Select(const ScoreEvaluator& ev, uint32_t k,
                       const WalkSet& initial, bool lazy,
                       uint32_t num_threads) {
  WalkSet walks = initial;
  EstimatedGreedyOptions options;
  options.evaluate_exact = false;
  options.lazy = lazy;
  options.num_threads = num_threads;
  return EstimatedGreedySelect(ev, k, &walks, options);
}

class LazyGreedyEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<voting::ScoreKind, uint64_t>> {
};

TEST_P(LazyGreedyEquivalenceTest, LazyAndParallelMatchExhaustiveSerial) {
  const auto [kind, seed] = GetParam();
  auto inst = MakeRandomInstance(40, 220, 3, seed, /*max_stubbornness=*/0.7);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 4, SpecFor(kind));
  const WalkSet initial = MakeWalks(ev, /*lambda=*/5, seed * 5 + 3);

  const SelectionResult baseline =
      Select(ev, 8, initial, /*lazy=*/false, /*num_threads=*/1);
  const SelectionResult lazy =
      Select(ev, 8, initial, /*lazy=*/true, /*num_threads=*/1);
  const SelectionResult parallel =
      Select(ev, 8, initial, /*lazy=*/true, /*num_threads=*/4);

  EXPECT_EQ(lazy.seeds, baseline.seeds) << voting::ScoreKindName(kind);
  EXPECT_EQ(parallel.seeds, baseline.seeds) << voting::ScoreKindName(kind);
  EXPECT_DOUBLE_EQ(lazy.score, baseline.score);
  EXPECT_DOUBLE_EQ(parallel.score, baseline.score);
  EXPECT_DOUBLE_EQ(lazy.diagnostics.at("estimated_score"),
                   baseline.diagnostics.at("estimated_score"));
  // The optimization must never do MORE gain work than the full scan.
  EXPECT_LE(lazy.diagnostics.at("gain_evaluations"),
            baseline.diagnostics.at("gain_evaluations"));
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSeeds, LazyGreedyEquivalenceTest,
    ::testing::Combine(
        ::testing::Values(voting::ScoreKind::kCumulative,
                          voting::ScoreKind::kPlurality,
                          voting::ScoreKind::kPApproval,
                          voting::ScoreKind::kPositionalPApproval,
                          voting::ScoreKind::kCopeland),
        ::testing::Values(301u, 302u, 303u)));

TEST(LazyGreedyTest, TieHeavyInputKeepsDeterministicOrder) {
  // Every user starts at the same opinion with the same stubbornness on a
  // near-regular graph: marginal gains collide constantly, so any deviation
  // from the exhaustive (gain, node id) tie-break shows up as a different
  // seed sequence.
  for (uint64_t seed : {401u, 402u, 403u}) {
    auto inst = MakeRandomInstance(36, 200, 2, seed);
    for (auto& campaign : inst.state.campaigns) {
      for (uint32_t v = 0; v < 36; ++v) {
        campaign.initial_opinions[v] = 0.25;
        campaign.stubbornness[v] = 0.5;
      }
    }
    opinion::FJModel model(inst.graph);
    ScoreEvaluator ev(model, inst.state, 0, 3,
                      voting::ScoreSpec::Cumulative());
    const WalkSet initial = MakeWalks(ev, /*lambda=*/4, seed + 7);
    const SelectionResult exhaustive =
        Select(ev, 10, initial, /*lazy=*/false, 1);
    const SelectionResult lazy = Select(ev, 10, initial, /*lazy=*/true, 1);
    EXPECT_EQ(lazy.seeds, exhaustive.seeds) << "instance seed " << seed;
  }
}

TEST(LazyGreedyTest, TieBreakPicksLowestNodeId) {
  // Two disconnected two-node chains with identical walks and weights: the
  // candidate gains of nodes 0 and 2 are exactly equal, so both paths must
  // pick the lower id first.
  graph::GraphBuilder builder(4);
  builder.AddEdge(1, 0, 1.0);
  builder.AddEdge(3, 2, 1.0);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  opinion::MultiCampaignState state;
  state.campaigns.resize(2);
  state.campaigns[0].initial_opinions = {0.0, 0.0, 0.0, 0.0};
  state.campaigns[0].stubbornness = {0.0, 0.0, 0.0, 0.0};
  state.campaigns[1].initial_opinions = {0.5, 0.5, 0.5, 0.5};
  state.campaigns[1].stubbornness = {1.0, 1.0, 1.0, 1.0};
  opinion::FJModel model(*g);
  ScoreEvaluator ev(model, state, 0, 2, voting::ScoreSpec::Cumulative());

  for (const bool lazy : {false, true}) {
    WalkSet walks(4);
    walks.AddWalk({1, 0});  // start 1 reaches influencer 0
    walks.AddWalk({3, 2});  // start 3 reaches influencer 2 — same gain
    walks.Finalize(state.campaigns[0].initial_opinions);
    EstimatedGreedyOptions options;
    options.evaluate_exact = false;
    options.lazy = lazy;
    const auto result = EstimatedGreedySelect(ev, 2, &walks, options);
    EXPECT_EQ(result.seeds, (std::vector<graph::NodeId>{0, 2}))
        << (lazy ? "lazy" : "exhaustive");
  }
}

TEST(LazyGreedyTest, MatchesOnRSSketchWeights) {
  // Sketch-built walk sets carry non-uniform start weights; the lazy path
  // must agree with the exhaustive one there too.
  auto inst = MakeRandomInstance(48, 260, 2, 17);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 5, voting::ScoreSpec::Cumulative());
  SketchBuildOptions build;
  build.num_threads = 2;
  const auto sketch = BuildSketchSet(ev, 4000, /*master_seed=*/9, build);
  const SelectionResult exhaustive = Select(ev, 12, *sketch, false, 1);
  const SelectionResult lazy = Select(ev, 12, *sketch, true, 1);
  EXPECT_EQ(lazy.seeds, exhaustive.seeds);
  EXPECT_DOUBLE_EQ(lazy.diagnostics.at("estimated_score"),
                   exhaustive.diagnostics.at("estimated_score"));
  EXPECT_LT(lazy.diagnostics.at("gain_evaluations"),
            exhaustive.diagnostics.at("gain_evaluations"));
}

TEST(LazyGreedyTest, OnPrefixStopsSelectionEarly) {
  auto inst = MakeRandomInstance(30, 160, 2, 53);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 4, voting::ScoreSpec::Cumulative());
  const WalkSet initial = MakeWalks(ev, 4, 99);

  const SelectionResult full = Select(ev, 6, initial, true, 1);
  ASSERT_GE(full.seeds.size(), 4u);

  for (const bool lazy : {false, true}) {
    WalkSet walks = initial;
    EstimatedGreedyOptions options;
    options.evaluate_exact = false;
    options.lazy = lazy;
    std::vector<std::vector<graph::NodeId>> prefixes;
    options.on_prefix = [&](uint32_t len,
                            const std::vector<graph::NodeId>& prefix,
                            const WalkSet&) {
      EXPECT_EQ(prefix.size(), len);
      prefixes.push_back(prefix);
      return len >= 3;  // accept the length-3 prefix
    };
    const auto result = EstimatedGreedySelect(ev, 6, &walks, options);
    ASSERT_EQ(result.seeds.size(), 3u);
    // The early-stopped run walks the same greedy path as the full run.
    EXPECT_EQ(result.seeds,
              std::vector<graph::NodeId>(full.seeds.begin(),
                                         full.seeds.begin() + 3));
    ASSERT_EQ(prefixes.size(), 3u);
    EXPECT_EQ(prefixes.back(), result.seeds);
  }
}

}  // namespace
}  // namespace voteopt::core
