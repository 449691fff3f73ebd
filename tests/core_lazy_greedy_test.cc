// The lazy (CELF) cumulative path and the parallel rank-sensitive gain
// scan are pure evaluation-order optimizations: their selected seeds, the
// estimated score, and the exact score must be bit-identical to the
// exhaustive serial scan — including under heavy gain ties, where only the
// deterministic (gain, node id) ordering keeps the paths aligned.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

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

/// The per-candidate round-0 scan that CumulativeGains replaced, kept
/// verbatim as its oracle: one pass over w's postings per candidate.
double PerCandidateCumulativeGain(const WalkSet& walks, graph::NodeId w) {
  double gain = 0.0;
  for (const WalkSet::Posting& posting : walks.PostingsOf(w)) {
    if (posting.pos >= walks.EffectiveLen(posting.walk)) continue;
    const graph::NodeId start = walks.StartOf(posting.walk);
    gain += walks.StartWeight(start) /
            static_cast<double>(walks.Lambda(start)) *
            (1.0 - walks.Value(posting.walk));
  }
  return gain;
}

TEST(LazyGreedyTest, WalkOrderedGainsMatchPerCandidateScan) {
  // Horizons up to 20 and a self-loop make walks revisit nodes; every third
  // row starts no walk (lambda = 0) but still sits inside other walks; odd
  // rounds carry RS start weights; and 0-10 cuts leave walks shortened and
  // at value 1. Every gain must equal the posting scan's bit for bit.
  Rng rng(2609);
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto n = static_cast<uint32_t>(8 + rng.UniformInt(33));
    auto inst = MakeRandomInstance(n, n * (2 + rng.UniformInt(4)), 2,
                                   /*seed=*/5000 + round,
                                   /*max_stubbornness=*/rng.Uniform());
    graph::GraphBuilder builder(n);
    for (graph::NodeId u = 0; u < n; ++u) {
      const auto targets = inst.graph.OutNeighbors(u);
      const auto weights = inst.graph.OutWeights(u);
      for (size_t i = 0; i < targets.size(); ++i) {
        builder.AddEdge(u, targets[i], weights[i]);
      }
    }
    builder.AddEdge(1, 1, 1.0);
    auto built = builder.Build(
        {.normalize_incoming = true, .allow_self_loops = true});
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const graph::Graph& g = *built;

    const opinion::Campaign& target = inst.state.campaigns[0];
    graph::AliasSampler alias(g);
    WalkEngine engine(g, target, alias);
    const auto horizon = static_cast<uint32_t>(1 + rng.UniformInt(20));
    WalkSet walks(n);
    std::vector<graph::NodeId> scratch;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (v % 3 == 0) continue;
      const uint64_t lambda = 1 + rng.UniformInt(4);
      for (uint64_t j = 0; j < lambda; ++j) {
        engine.Generate(v, horizon, &rng, &scratch);
        walks.AddWalk(scratch);
      }
    }
    walks.AddWalk({1, 1, 2, 1});  // through the self-loop and back
    walks.Finalize(target.initial_opinions);
    if (round % 2 == 1) ApplySketchWeights(&walks, n, walks.num_walks());
    const uint64_t cuts = rng.UniformInt(11);
    for (uint64_t i = 0; i < cuts; ++i) {
      walks.Truncate(static_cast<graph::NodeId>(rng.UniformInt(n)),
                     [](uint32_t, double) {});
    }

    std::vector<double> expected(n);
    for (graph::NodeId w = 0; w < n; ++w) {
      expected[w] = PerCandidateCumulativeGain(walks, w);
    }
    std::vector<double> gains;
    CumulativeGains(walks, &gains);
    ASSERT_EQ(gains.size(), n);
    ASSERT_EQ(std::memcmp(gains.data(), expected.data(), n * sizeof(double)),
              0);
  }
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
