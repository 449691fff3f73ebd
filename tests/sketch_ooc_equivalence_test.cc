// Determinism ledger entry #7: the out-of-core block-sharded sketch builder
// produces a WalkSet BIT-IDENTICAL to the in-memory core::BuildSketchSet
// for the same (master_seed, theta) — across block counts (including one
// block per node), thread counts, and all five voting rules.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/estimated_greedy.h"
#include "core/sketch.h"
#include "opinion/fj_model.h"
#include "sketch_ooc/ooc_builder.h"
#include "sketch_ooc/partition.h"
#include "test_fixtures.h"

namespace voteopt::sketch_ooc {
namespace {

using test::MakeRandomInstance;

// Byte-for-byte equality of the full frozen layer plus the dynamic values.
void ExpectBitIdentical(const core::WalkSet& a, const core::WalkSet& b) {
  const auto& fa = a.frozen();
  const auto& fb = b.frozen();
  ASSERT_EQ(fa.nodes.size(), fb.nodes.size());
  for (size_t i = 0; i < fa.nodes.size(); ++i) {
    ASSERT_EQ(fa.nodes[i], fb.nodes[i]) << "node slab byte " << i;
  }
  ASSERT_EQ(fa.offsets.size(), fb.offsets.size());
  for (size_t i = 0; i < fa.offsets.size(); ++i) {
    ASSERT_EQ(fa.offsets[i], fb.offsets[i]) << "offset " << i;
  }
  ASSERT_EQ(fa.starts.size(), fb.starts.size());
  for (size_t i = 0; i < fa.starts.size(); ++i) {
    ASSERT_EQ(fa.starts[i], fb.starts[i]) << "start " << i;
  }
  ASSERT_EQ(fa.lambda.size(), fb.lambda.size());
  for (size_t i = 0; i < fa.lambda.size(); ++i) {
    ASSERT_EQ(fa.lambda[i], fb.lambda[i]) << "lambda " << i;
    ASSERT_EQ(fa.start_weight[i], fb.start_weight[i]) << "weight " << i;
  }
  ASSERT_EQ(fa.index_offsets.size(), fb.index_offsets.size());
  for (size_t i = 0; i < fa.index_offsets.size(); ++i) {
    ASSERT_EQ(fa.index_offsets[i], fb.index_offsets[i]);
  }
  ASSERT_EQ(fa.index_entries.size(), fb.index_entries.size());
  for (size_t i = 0; i < fa.index_entries.size(); ++i) {
    ASSERT_EQ(fa.index_entries[i].walk, fb.index_entries[i].walk);
    ASSERT_EQ(fa.index_entries[i].pos, fb.index_entries[i].pos);
  }
  ASSERT_EQ(a.num_walks(), b.num_walks());
  for (uint32_t w = 0; w < a.num_walks(); ++w) {
    ASSERT_EQ(a.Value(w), b.Value(w)) << "value of walk " << w;
    ASSERT_EQ(a.EffectiveLen(w), b.EffectiveLen(w)) << "len of walk " << w;
  }
}

// Three waves per build (two full, one of 17 walks), so wave boundaries
// are crossed on every plan.
constexpr uint64_t kThreeWaveTheta = 2 * kOocWaveWalks + 17;

TEST(SketchOocEquivalenceTest, BitIdenticalAcrossBlockAndThreadCounts) {
  constexpr uint32_t kNodes = 120;
  constexpr uint32_t kHorizon = 6;
  constexpr uint64_t kTheta = kThreeWaveTheta;
  constexpr uint64_t kSeed = 99;
  auto inst = MakeRandomInstance(kNodes, 700, 2, 41);
  opinion::FJModel model(inst.graph);
  voting::ScoreEvaluator ev(model, inst.state, 0, kHorizon,
                            voting::ScoreSpec::Cumulative());

  core::SketchBuildOptions mem_options;
  mem_options.num_threads = 2;
  const auto reference = core::BuildSketchSet(ev, kTheta, kSeed, mem_options);

  // Block counts: whole-graph, 2, 16, and the pathological one-node-per-
  // block plan (every transition is a boundary crossing).
  for (const uint32_t num_blocks : {1u, 2u, 16u, kNodes}) {
    auto plan = PlanByCount(inst.graph, num_blocks);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_EQ(plan->num_blocks(), num_blocks);

    for (const uint32_t threads : {1u, 2u, 4u}) {
      OocBuildOptions options;
      options.num_threads = threads;
      OocBuildStats stats;
      auto ooc = BuildSketchSetOoc(inst.graph, *plan, inst.state.campaigns[0],
                                   kHorizon, kTheta, kSeed, options, &stats);
      ASSERT_TRUE(ooc.ok()) << ooc.status().ToString();
      SCOPED_TRACE("blocks=" + std::to_string(num_blocks) +
                   " threads=" + std::to_string(threads));
      ExpectBitIdentical(*reference, **ooc);
      EXPECT_EQ(stats.num_blocks, num_blocks);
      EXPECT_EQ(stats.waves, 3u);
      if (num_blocks > 1) {
        EXPECT_GT(stats.boundary_hops, 0u);
      }
    }
  }
}

TEST(SketchOocEquivalenceTest, SeedSelectionMatchesForAllFiveRules) {
  constexpr uint32_t kHorizon = 5;
  constexpr uint64_t kTheta = kThreeWaveTheta;
  constexpr uint64_t kSeed = 7;
  auto inst = MakeRandomInstance(80, 450, 3, 53);
  opinion::FJModel model(inst.graph);

  auto plan = PlanByCount(inst.graph, 8);
  ASSERT_TRUE(plan.ok());

  OocBuildOptions options;
  options.num_threads = 2;

  core::SketchBuildOptions mem_options;
  mem_options.num_threads = 4;

  const voting::ScoreSpec specs[] = {
      voting::ScoreSpec::Cumulative(), voting::ScoreSpec::Plurality(),
      voting::ScoreSpec::PApproval(2),
      voting::ScoreSpec::PositionalPApproval({1.0, 0.4}),
      voting::ScoreSpec::Copeland()};
  for (const auto& spec : specs) {
    SCOPED_TRACE(voting::ScoreKindName(spec.kind));
    voting::ScoreEvaluator ev(model, inst.state, 0, kHorizon, spec);
    // Fresh builds per rule: greedy selection rewrites the dynamic values
    // layer in place, so each comparison starts from pristine sketches.
    auto ooc = BuildSketchSetOoc(inst.graph, *plan, inst.state.campaigns[0],
                                 kHorizon, kTheta, kSeed, options);
    ASSERT_TRUE(ooc.ok()) << ooc.status().ToString();
    const auto mem = core::BuildSketchSet(ev, kTheta, kSeed, mem_options);
    ExpectBitIdentical(*mem, **ooc);

    // The stated proof obligation: identical sketches must yield identical
    // greedy seed sets under every rule.
    core::EstimatedGreedyOptions greedy;
    greedy.evaluate_exact = false;
    const auto mem_pick = core::EstimatedGreedySelect(ev, 5, mem.get(), greedy);
    const auto ooc_pick =
        core::EstimatedGreedySelect(ev, 5, ooc->get(), greedy);
    EXPECT_EQ(mem_pick.seeds, ooc_pick.seeds);
    EXPECT_DOUBLE_EQ(mem_pick.score, ooc_pick.score);
  }
}

TEST(SketchOocEquivalenceTest, SchedulingStatsArePinned) {
  // Byte equality cannot see HOW the scheduler got there: a walk parked
  // after its last step, or a changed sweep order, wave size or chunk
  // merge order, leaves the WalkSet intact but moves these counts — the
  // ones the benchmark reports as sketch_ooc.{rounds,block_loads,
  // boundary_hops}. They do not depend on the thread count.
  auto inst = MakeRandomInstance(200, 1300, 2, 83);
  auto plan = PlanByCount(inst.graph, 5);
  ASSERT_TRUE(plan.ok());
  for (const uint32_t threads : {1u, 3u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    OocBuildOptions options;
    options.num_threads = threads;
    OocBuildStats stats;
    auto ooc = BuildSketchSetOoc(inst.graph, *plan, inst.state.campaigns[0],
                                 /*horizon=*/7, kThreeWaveTheta,
                                 /*master_seed=*/2024, options, &stats);
    ASSERT_TRUE(ooc.ok()) << ooc.status().ToString();
    EXPECT_EQ(stats.num_blocks, 5u);
    EXPECT_EQ(stats.waves, 3u);
    EXPECT_EQ(stats.rounds, 14u);
    EXPECT_EQ(stats.block_loads, 61u);
    EXPECT_EQ(stats.boundary_hops, 110313u);
  }
}

TEST(SketchOocEquivalenceTest, BudgetDrivenConvenienceMatchesInMemory) {
  constexpr uint32_t kHorizon = 4;
  constexpr uint64_t kTheta = 2000;
  auto inst = MakeRandomInstance(100, 600, 2, 61);
  opinion::FJModel model(inst.graph);
  voting::ScoreEvaluator ev(model, inst.state, 0, kHorizon,
                            voting::ScoreSpec::Cumulative());

  core::SketchBuildOptions mem_options;
  mem_options.num_threads = 1;
  const auto mem = core::BuildSketchSet(ev, kTheta, /*master_seed=*/5,
                                        mem_options);

  // A tight budget forces several blocks.
  OocBuildOptions options;
  options.num_threads = 2;
  OocBuildStats stats;
  auto ooc = BuildSketchSetOocFromGraph(inst.graph, inst.state.campaigns[0],
                                        kHorizon, kTheta, /*master_seed=*/5,
                                        /*block_budget_bytes=*/2048,
                                        /*scratch_prefix=*/"", options, &stats);
  ASSERT_TRUE(ooc.ok()) << ooc.status().ToString();
  EXPECT_GE(stats.num_blocks, 4u);
  ExpectBitIdentical(*mem, **ooc);
}

}  // namespace
}  // namespace voteopt::sketch_ooc
