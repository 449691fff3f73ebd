#include "graph/alias_table.h"

#include <gtest/gtest.h>

#include <map>

#include "graph/builder.h"
#include "graph/generators.h"

namespace voteopt::graph {
namespace {

TEST(AliasSamplerTest, ExactProbabilitiesMatchWeights) {
  GraphBuilder b(4);
  b.AddEdge(0, 3, 0.1);
  b.AddEdge(1, 3, 0.3);
  b.AddEdge(2, 3, 0.6);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  AliasSampler sampler(*g);
  // Reconstructed per-slot probabilities must equal the normalized weights.
  EXPECT_NEAR(sampler.Probability(3, 0), 0.1, 1e-12);
  EXPECT_NEAR(sampler.Probability(3, 1), 0.3, 1e-12);
  EXPECT_NEAR(sampler.Probability(3, 2), 0.6, 1e-12);
}

TEST(AliasSamplerTest, EmpiricalFrequenciesMatch) {
  GraphBuilder b(4);
  b.AddEdge(0, 3, 0.2);
  b.AddEdge(1, 3, 0.5);
  b.AddEdge(2, 3, 0.3);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  AliasSampler sampler(*g);
  Rng rng(99);
  std::map<NodeId, int> counts;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    ++counts[sampler.SampleInNeighbor(3, &rng)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(trials), 0.2, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(trials), 0.5, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(trials), 0.3, 0.01);
}

TEST(AliasSamplerTest, NodeWithoutInEdgesReturnsSentinel) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 1.0);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  AliasSampler sampler(*g);
  Rng rng(1);
  EXPECT_EQ(sampler.SampleInNeighbor(0, &rng), AliasSampler::kNoNeighbor);
  EXPECT_EQ(sampler.SampleInNeighbor(1, &rng), 0u);
}

TEST(AliasSamplerTest, SingleInNeighborAlwaysSampled) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 0.37);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  AliasSampler sampler(*g);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sampler.SampleInNeighbor(1, &rng), 0u);
  }
}

TEST(AliasSamplerTest, UnnormalizedWeightsSampledProportionally) {
  GraphBuilder b(3);
  b.AddEdge(0, 2, 2.0);
  b.AddEdge(1, 2, 6.0);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  AliasSampler sampler(*g);
  EXPECT_NEAR(sampler.Probability(2, 0), 0.25, 1e-12);
  EXPECT_NEAR(sampler.Probability(2, 1), 0.75, 1e-12);
}

TEST(AliasSamplerTest, ProbabilitiesSumToOnePerNode) {
  Rng rng(123);
  InteractionCounts counts;
  Graph g = ErdosRenyiDigraph(50, 400, counts, &rng).NormalizedIncoming();
  AliasSampler sampler(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const size_t deg = g.InNeighbors(v).size();
    if (deg == 0) continue;
    double total = 0.0;
    for (size_t i = 0; i < deg; ++i) total += sampler.Probability(v, i);
    EXPECT_NEAR(total, 1.0, 1e-9) << "node " << v;
  }
}

// --- Sub-range samplers: the per-block tables of sketch_ooc/ are this same
// class built over a node range, and must behave bit-identically to the
// whole-graph sampler on every row they share, because the determinism
// ledger's OOC == in-memory guarantee (entry #7) rests on the two
// consuming the same RNG stream identically. ---

TEST(AliasSamplerRangeTest, SubRangeSamplesBitIdenticalToFullSampler) {
  Rng graph_rng(123);
  InteractionCounts counts;
  Graph g = ErdosRenyiDigraph(60, 500, counts, &graph_rng).NormalizedIncoming();
  AliasSampler full(g);

  // Sampler over an arbitrary node range [lo, hi), as a sketch_ooc block
  // compiles it.
  const NodeId lo = 13, hi = 47;
  AliasSampler range(g, lo, hi);
  EXPECT_EQ(range.lo(), lo);
  EXPECT_EQ(range.hi(), hi);
  EXPECT_FALSE(range.Contains(lo - 1));
  EXPECT_TRUE(range.Contains(lo));
  EXPECT_TRUE(range.Contains(hi - 1));
  EXPECT_FALSE(range.Contains(hi));

  // Same RNG stream through both samplers: every draw must agree exactly,
  // including the empty-row sentinel.
  for (NodeId v = lo; v < hi; ++v) {
    Rng full_rng(v * 7919 + 1);
    Rng range_rng(v * 7919 + 1);
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(range.SampleInNeighbor(v, &range_rng),
                full.SampleInNeighbor(v, &full_rng))
          << "node " << v << " draw " << i;
    }
    // And the streams themselves stay in lockstep (same number of draws).
    ASSERT_EQ(full_rng.Next(), range_rng.Next()) << "node " << v;
    for (size_t slot = 0; slot < g.InDegree(v); ++slot) {
      ASSERT_EQ(range.Probability(v, slot), full.Probability(v, slot));
    }
  }
}

TEST(AliasSamplerRangeTest, WholeRangeMatchesEverywhere) {
  // Degenerate single-block plan: the explicit range covers all of [0, n).
  Rng graph_rng(7);
  InteractionCounts counts;
  Graph g = ErdosRenyiDigraph(40, 250, counts, &graph_rng).NormalizedIncoming();
  AliasSampler full(g);
  AliasSampler range(g, 0, g.num_nodes());
  EXPECT_EQ(range.hi(), g.num_nodes());
  Rng a(42), b(42);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_EQ(range.SampleInNeighbor(v, &b), full.SampleInNeighbor(v, &a));
    }
  }
}

TEST(AliasSamplerRangeTest, SingleNodeRangesMatch) {
  // The pathological one-node-per-block partition reduces every range to
  // one row; it must still agree with the full sampler, the empty row 0
  // included.
  GraphBuilder b(4);
  b.AddEdge(0, 3, 0.1);
  b.AddEdge(1, 3, 0.3);
  b.AddEdge(2, 3, 0.6);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  AliasSampler full(*g);
  for (NodeId v = 0; v < 4; ++v) {
    AliasSampler range(*g, v, v + 1);
    EXPECT_EQ(range.hi(), v + 1);
    Rng x(v + 1), y(v + 1);
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(range.SampleInNeighbor(v, &y), full.SampleInNeighbor(v, &x));
    }
    ASSERT_EQ(x.Next(), y.Next()) << "node " << v;
  }
}

TEST(AliasSamplerTest, MemoryAccounting) {
  GraphBuilder b(3);
  b.AddEdge(0, 2, 1.0);
  b.AddEdge(1, 2, 1.0);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  AliasSampler sampler(*g);
  // Two table entries (one per edge) plus the owned CSR offsets snapshot
  // (num_nodes + 1 entries) that decouples incremental copies from the
  // base sampler's graph lifetime.
  EXPECT_EQ(sampler.memory_bytes(),
            2 * (sizeof(double) + sizeof(uint32_t)) + 4 * sizeof(uint64_t));
}

}  // namespace
}  // namespace voteopt::graph
