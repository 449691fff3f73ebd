#include "core/min_seed.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/estimated_greedy.h"
#include "core/greedy_dm.h"
#include "core/sketch.h"
#include "test_fixtures.h"

namespace voteopt::core {
namespace {

using test::MakePaperExample;
using test::MakeRandomInstance;

SeedSelector ExactGreedy() {
  return [](const ScoreEvaluator& ev, uint32_t k) {
    return GreedyDMSelect(ev, k);
  };
}

/// The serve-style selection substrate: one frozen sketch, reset (not
/// rebuilt) before every selection. Both min-seed drivers below run over
/// the same sketch, so their answers must coincide exactly.
struct SketchSubstrate {
  std::unique_ptr<WalkSet> sketch;

  explicit SketchSubstrate(const ScoreEvaluator& ev, uint64_t theta,
                           uint64_t master_seed) {
    SketchBuildOptions build;
    build.num_threads = 2;
    sketch = BuildSketchSet(ev, theta, master_seed, build);
  }

  /// Per-budget selector for the binary-search driver.
  SeedSelector BudgetSelector() {
    return [this](const ScoreEvaluator& ev, uint32_t k) {
      sketch->ResetValues(ev.target_campaign().initial_opinions);
      EstimatedGreedyOptions options;
      options.evaluate_exact = false;
      return EstimatedGreedySelect(ev, k, sketch.get(), options);
    };
  }

  /// Prefix-reporting selector for the single-pass driver.
  PrefixSelector SinglePassSelector() {
    return [this](const ScoreEvaluator& ev, uint32_t k,
                  const PrefixCallback& on_prefix) {
      sketch->ResetValues(ev.target_campaign().initial_opinions);
      EstimatedGreedyOptions options;
      options.evaluate_exact = false;
      options.on_prefix = ToGreedyPrefixHook(on_prefix);
      return EstimatedGreedySelect(ev, k, sketch.get(), options);
    };
  }
};

TEST(TargetWinsTest, PaperExample) {
  auto ex = MakePaperExample();
  opinion::FJModel model(ex.graph);
  ScoreEvaluator ev(model, ex.state, 0, 1, voting::ScoreSpec::Plurality());
  // Without seeds both candidates have plurality 2: no strict win.
  EXPECT_FALSE(TargetWins(ev, {}));
  // Seeding node 2 gives 4 vs 0.
  EXPECT_TRUE(TargetWins(ev, {2}));
}

TEST(MinSeedsTest, PaperExampleNeedsOneSeedForPlurality) {
  auto ex = MakePaperExample();
  opinion::FJModel model(ex.graph);
  ScoreEvaluator ev(model, ex.state, 0, 1, voting::ScoreSpec::Plurality());
  const auto result = MinSeedsToWin(ev, ExactGreedy());
  ASSERT_TRUE(result.achievable);
  EXPECT_EQ(result.k_star, 1u);
  EXPECT_EQ(result.seeds.size(), 1u);
  EXPECT_TRUE(TargetWins(ev, result.seeds));
}

TEST(MinSeedsTest, ZeroWhenAlreadyWinning) {
  auto ex = MakePaperExample();
  opinion::FJModel model(ex.graph);
  // Swap roles: evaluate candidate c2 (index 1), which wins cumulative
  // 2.78 vs 2.55 with no seeds at all.
  ScoreEvaluator ev(model, ex.state, 1, 1, voting::ScoreSpec::Cumulative());
  const auto result = MinSeedsToWin(ev, ExactGreedy());
  ASSERT_TRUE(result.achievable);
  EXPECT_EQ(result.k_star, 0u);
  EXPECT_TRUE(result.seeds.empty());
}

TEST(MinSeedsTest, MatchesExhaustiveSearchOverK) {
  // k* from the binary search must equal the smallest k whose greedy seed
  // set wins (Algorithm 2 semantics, given the same selector).
  for (uint64_t seed : {71u, 73u, 79u}) {
    auto inst = MakeRandomInstance(20, 110, 2, seed);
    opinion::FJModel model(inst.graph);
    ScoreEvaluator ev(model, inst.state, 0, 4, voting::ScoreSpec::Cumulative());
    const auto result = MinSeedsToWin(ev, ExactGreedy());
    if (!result.achievable) continue;
    uint32_t smallest = 0;
    if (!TargetWins(ev, {})) {
      smallest = 21;  // sentinel
      for (uint32_t k = 1; k <= 20; ++k) {
        if (TargetWins(ev, GreedyDMSelect(ev, k).seeds)) {
          smallest = k;
          break;
        }
      }
    }
    EXPECT_EQ(result.k_star, smallest) << "instance seed " << seed;
  }
}

TEST(MinSeedsTest, UnachievableWhenCompetitorSaturated) {
  // Competitor is fully stubborn at opinion 1 everywhere: cumulative score
  // n can at best be tied, never strictly beaten.
  auto inst = MakeRandomInstance(12, 60, 2, 83);
  for (uint32_t v = 0; v < 12; ++v) {
    inst.state.campaigns[1].initial_opinions[v] = 1.0;
    inst.state.campaigns[1].stubbornness[v] = 1.0;
  }
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 3, voting::ScoreSpec::Cumulative());
  const auto result = MinSeedsToWin(ev, ExactGreedy());
  EXPECT_FALSE(result.achievable);
  EXPECT_EQ(result.k_star, 12u);  // reports the exhausted budget
}

TEST(MinSeedsTest, RespectsKMax) {
  auto inst = MakeRandomInstance(20, 100, 2, 89);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 3, voting::ScoreSpec::Cumulative());
  const auto result = MinSeedsToWin(ev, ExactGreedy(), /*k_max=*/2);
  if (result.achievable) {
    EXPECT_LE(result.k_star, 2u);
  } else {
    EXPECT_EQ(result.k_star, 2u);
  }
}

TEST(MinSeedsTest, BinarySearchUsesLogCalls) {
  auto inst = MakeRandomInstance(64, 320, 2, 97);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 3, voting::ScoreSpec::Cumulative());
  const auto result = MinSeedsToWin(ev, ExactGreedy());
  // 1 feasibility call + at most ceil(log2(64)) = 6 bisection steps.
  EXPECT_LE(result.selector_calls, 8u);
}

TEST(MinSeedsTest, GreedyBudgetsNestOnAFixedSketch) {
  // The invariant both fast paths stand on: on one frozen sketch, the
  // greedy seed set at budget k is a PREFIX of the seed set at k' > k.
  for (const auto kind :
       {voting::ScoreKind::kCumulative, voting::ScoreKind::kPlurality}) {
    auto inst = MakeRandomInstance(40, 220, 2, 111);
    opinion::FJModel model(inst.graph);
    voting::ScoreSpec spec;
    spec.kind = kind;
    ScoreEvaluator ev(model, inst.state, 0, 4, spec);
    SketchSubstrate substrate(ev, /*theta=*/4096, /*master_seed=*/13);
    const SeedSelector select = substrate.BudgetSelector();

    const auto at_12 = select(ev, 12).seeds;
    ASSERT_EQ(at_12.size(), 12u);
    for (const uint32_t k : {1u, 3u, 7u, 12u}) {
      const auto at_k = select(ev, k).seeds;
      ASSERT_EQ(at_k.size(), k) << voting::ScoreKindName(kind);
      EXPECT_EQ(at_k, std::vector<graph::NodeId>(at_12.begin(),
                                                 at_12.begin() + k))
          << voting::ScoreKindName(kind) << " budget " << k;
    }
  }
}

TEST(MinSeedsTest, SinglePassMatchesBinarySearch) {
  // Same sketch, same greedy: the single-pass driver must return exactly
  // the binary search's k*, seeds, and achievability — with one selector
  // call instead of 1 + O(log k).
  uint32_t covered_achievable = 0;
  for (const uint64_t seed : {211u, 223u, 227u, 229u, 233u}) {
    auto inst = MakeRandomInstance(32, 170, 2, seed);
    opinion::FJModel model(inst.graph);
    for (const auto kind :
         {voting::ScoreKind::kCumulative, voting::ScoreKind::kPlurality}) {
      voting::ScoreSpec spec;
      spec.kind = kind;
      ScoreEvaluator ev(model, inst.state, 0, 3, spec);
      SketchSubstrate substrate(ev, /*theta=*/4096, /*master_seed=*/seed);

      const MinSeedResult searched =
          MinSeedsToWin(ev, substrate.BudgetSelector());
      const MinSeedResult single =
          MinSeedsToWinSinglePass(ev, substrate.SinglePassSelector());

      EXPECT_EQ(single.achievable, searched.achievable)
          << voting::ScoreKindName(kind) << " seed " << seed;
      EXPECT_EQ(single.k_star, searched.k_star)
          << voting::ScoreKindName(kind) << " seed " << seed;
      EXPECT_EQ(single.seeds, searched.seeds)
          << voting::ScoreKindName(kind) << " seed " << seed;
      EXPECT_LE(single.selector_calls, 1u);
      if (searched.achievable && searched.k_star > 0) {
        ++covered_achievable;
        EXPECT_GE(searched.selector_calls, 2u);  // the path being replaced
      }
    }
  }
  // The sweep must actually exercise non-trivial instances.
  EXPECT_GT(covered_achievable, 0u);
}

TEST(MinSeedsTest, SinglePassZeroWhenAlreadyWinning) {
  auto ex = MakePaperExample();
  opinion::FJModel model(ex.graph);
  ScoreEvaluator ev(model, ex.state, 1, 1, voting::ScoreSpec::Cumulative());
  SketchSubstrate substrate(ev, /*theta=*/2048, /*master_seed=*/5);
  const auto result =
      MinSeedsToWinSinglePass(ev, substrate.SinglePassSelector());
  ASSERT_TRUE(result.achievable);
  EXPECT_EQ(result.k_star, 0u);
  EXPECT_TRUE(result.seeds.empty());
  EXPECT_EQ(result.selector_calls, 0u);
}

TEST(MinSeedsTest, SinglePassUnachievableReportsExhaustedBudget) {
  auto inst = MakeRandomInstance(12, 60, 2, 83);
  for (uint32_t v = 0; v < 12; ++v) {
    inst.state.campaigns[1].initial_opinions[v] = 1.0;
    inst.state.campaigns[1].stubbornness[v] = 1.0;
  }
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 3, voting::ScoreSpec::Cumulative());
  SketchSubstrate substrate(ev, /*theta=*/2048, /*master_seed=*/7);
  const auto result = MinSeedsToWinSinglePass(
      ev, substrate.SinglePassSelector(), /*k_max=*/8);
  EXPECT_FALSE(result.achievable);
  EXPECT_EQ(result.k_star, 8u);
  EXPECT_EQ(result.selector_calls, 1u);
}

}  // namespace
}  // namespace voteopt::core
