// Determinism ledger entry #10: incremental sketch repair
// (dyn::SketchRepairer) produces a WalkSet BIT-IDENTICAL to a from-scratch
// rebuild of the mutated instance — for every mutation schedule (edge
// additions, deletions, mixed batches, opinion-only batches), every thread
// count, both the in-memory and the out-of-core regeneration paths, and
// with seed selections agreeing under all five voting rules. Master seed 0
// is an ordinary seed: its sketches repair like any other. Underneath, the
// patched graph itself is builder-canonical: ApplyMutations' run-by-run
// patch equals a naive in-row rebuild and GraphBuilder's counting pass,
// byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "core/estimated_greedy.h"
#include "core/sketch.h"
#include "dyn/mutation.h"
#include "dyn/repair.h"
#include "graph/alias_table.h"
#include "graph/builder.h"
#include "opinion/fj_model.h"
#include "store/sketch_store.h"
#include "test_fixtures.h"
#include "util/rng.h"
#include "voting/evaluator.h"

namespace voteopt::dyn {
namespace {

using test::MakeRandomInstance;
using test::QueryView;
using test::RandomInstance;

constexpr uint32_t kHorizon = 6;
constexpr uint64_t kTheta = 4000;
constexpr uint64_t kSeed = 99;

// Byte-for-byte equality of the full frozen layer plus the values a query
// reads, on views reset from `opinions` (the same obligation
// sketch_ooc_equivalence_test states for ledger #7).
void ExpectBitIdentical(const core::WalkSet& a, const core::WalkSet& b,
                        const std::vector<double>& opinions) {
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
  const auto va = QueryView(a, opinions);
  const auto vb = QueryView(b, opinions);
  for (uint32_t w = 0; w < a.num_walks(); ++w) {
    ASSERT_EQ(va->Value(w), vb->Value(w)) << "value of walk " << w;
    ASSERT_EQ(va->EffectiveLen(w), vb->EffectiveLen(w)) << "len of walk " << w;
  }
}

std::unique_ptr<core::WalkSet> BuildFromScratch(
    const graph::Graph& graph, const opinion::MultiCampaignState& state,
    uint64_t theta = kTheta, uint64_t seed = kSeed) {
  opinion::FJModel model(graph);
  voting::ScoreEvaluator ev(model, state, /*target=*/0, kHorizon,
                            voting::ScoreSpec::Cumulative());
  core::SketchBuildOptions options;
  options.num_threads = 2;
  return core::BuildSketchSet(ev, theta, seed, options);
}

store::SketchMeta MetaFor(uint64_t theta = kTheta, uint64_t seed = kSeed) {
  store::SketchMeta meta;
  meta.theta = theta;
  meta.horizon = kHorizon;
  meta.target = 0;
  meta.master_seed = seed;
  return meta;
}

/// A deterministic (u -> v) pair NOT currently in the graph (edge_add
/// rejects duplicates).
std::pair<graph::NodeId, graph::NodeId> AbsentEdge(const graph::Graph& graph,
                                                   uint32_t salt) {
  const uint32_t n = graph.num_nodes();
  for (uint32_t step = 0;; ++step) {
    const graph::NodeId u = (salt + step * 7) % n;
    const graph::NodeId v = (salt * 3 + step * 11 + 1) % n;
    if (u == v) continue;
    const auto in = graph.InNeighbors(v);
    if (std::find(in.begin(), in.end(), u) == in.end()) return {u, v};
  }
}

/// An existing edge (u -> v) of the graph, by flat in-CSR position.
std::pair<graph::NodeId, graph::NodeId> EdgeAt(const graph::Graph& graph,
                                               size_t flat_index) {
  const auto offsets = graph.InOffsets();
  const auto sources = graph.InSources();
  flat_index %= sources.size();
  graph::NodeId v = 0;
  while (offsets[v + 1] <= flat_index) ++v;
  return {sources[flat_index], v};
}

/// Three representative schedules against `inst`: pure additions, a
/// mixed add/delete batch, and edits + opinion flips interleaved.
std::vector<std::vector<Mutation>> Schedules(const RandomInstance& inst) {
  const uint32_t n = inst.graph.num_nodes();
  const auto [au1, av1] = AbsentEdge(inst.graph, 13);
  const auto [au2, av2] = AbsentEdge(inst.graph, 29);
  const auto [au3, av3] = AbsentEdge(inst.graph, 57);
  const auto [du1, dv1] = EdgeAt(inst.graph, 7);
  const auto [du2, dv2] = EdgeAt(inst.graph, 131);
  std::vector<std::vector<Mutation>> schedules;
  schedules.push_back({Mutation::EdgeAdd(au1, av1, 2.0)});
  schedules.push_back({Mutation::EdgeAdd(au2, av2, 1.0),
                       Mutation::EdgeDel(du1, dv1),
                       Mutation::EdgeAdd(au3, av3, 0.25)});
  schedules.push_back({Mutation::EdgeDel(du2, dv2),
                       Mutation::SetOpinion(0, 5, 0.9),
                       Mutation::EdgeAdd(du2, dv2, 3.0),
                       Mutation::SetOpinion(1, n - 3, 0.1)});
  return schedules;
}

TEST(DynEquivalenceTest, RepairMatchesRebuildAcrossSchedulesAndThreads) {
  auto inst = MakeRandomInstance(120, 700, 2, 41);
  const auto base = BuildFromScratch(inst.graph, inst.state);
  const store::SketchMeta meta = MetaFor();

  for (size_t s = 0; s < Schedules(inst).size(); ++s) {
    const auto schedule = Schedules(inst)[s];
    auto patched = ApplyMutations(inst.graph, inst.state, schedule);
    ASSERT_TRUE(patched.ok()) << patched.status().ToString();
    ASSERT_FALSE(patched->dirty_nodes.empty());
    const auto rebuilt = BuildFromScratch(patched->graph, patched->state);

    for (const uint32_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("schedule=" + std::to_string(s) +
                   " threads=" + std::to_string(threads));
      RepairOptions options;
      options.num_threads = threads;
      auto outcome = SketchRepairer::Repair(
          *base, patched->graph, patched->state.campaigns[0], meta,
          patched->dirty_nodes, /*base_alias=*/nullptr, options);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      ExpectBitIdentical(*rebuilt, *outcome->sketch,
                         patched->state.campaigns[0].initial_opinions);
      EXPECT_EQ(outcome->stats.walks_total, kTheta);
      EXPECT_EQ(outcome->stats.dirty_nodes, patched->dirty_nodes.size());
      EXPECT_GT(outcome->stats.walks_repaired, 0u);
      EXPECT_LE(outcome->stats.walks_repaired, kTheta);
      ASSERT_NE(outcome->alias, nullptr);
    }
  }
}

TEST(DynEquivalenceTest, SequentialBatchesChainRowLevelAliasRebuilds) {
  auto inst = MakeRandomInstance(90, 500, 2, 17);
  const auto base = BuildFromScratch(inst.graph, inst.state);
  const store::SketchMeta meta = MetaFor();
  const auto base_alias =
      std::make_shared<const graph::AliasSampler>(inst.graph);

  // Batch 1 repairs against the full base tables; batch 2 must produce the
  // same bytes whether its tables come from batch 1's row-level rebuild or
  // from a full construction over the intermediate graph.
  const auto [du, dv] = EdgeAt(inst.graph, 42);
  auto patched1 = ApplyMutations(inst.graph, inst.state,
                                 std::vector<Mutation>{
                                     Mutation::EdgeAdd(1, 88, 1.5),
                                     Mutation::EdgeDel(du, dv)});
  ASSERT_TRUE(patched1.ok()) << patched1.status().ToString();
  RepairOptions options;
  options.num_threads = 2;
  auto outcome1 = SketchRepairer::Repair(
      *base, patched1->graph, patched1->state.campaigns[0], meta,
      patched1->dirty_nodes, base_alias.get(), options);
  ASSERT_TRUE(outcome1.ok()) << outcome1.status().ToString();
  ExpectBitIdentical(*BuildFromScratch(patched1->graph, patched1->state),
                     *outcome1->sketch,
                     patched1->state.campaigns[0].initial_opinions);

  auto patched2 = ApplyMutations(patched1->graph, patched1->state,
                                 std::vector<Mutation>{
                                     Mutation::EdgeAdd(88, 1, 1.0),
                                     Mutation::EdgeAdd(2, 3, 0.5)});
  ASSERT_TRUE(patched2.ok()) << patched2.status().ToString();
  auto outcome2 = SketchRepairer::Repair(
      *outcome1->sketch, patched2->graph, patched2->state.campaigns[0], meta,
      patched2->dirty_nodes, outcome1->alias.get(), options);
  ASSERT_TRUE(outcome2.ok()) << outcome2.status().ToString();
  ExpectBitIdentical(*BuildFromScratch(patched2->graph, patched2->state),
                     *outcome2->sketch,
                     patched2->state.campaigns[0].initial_opinions);
}

TEST(DynEquivalenceTest, OocRepairPathMatchesInMemoryAndRebuild) {
  auto inst = MakeRandomInstance(100, 600, 2, 61);
  const auto base = BuildFromScratch(inst.graph, inst.state);
  const store::SketchMeta meta = MetaFor();

  const auto [du, dv] = EdgeAt(inst.graph, 250);
  const std::vector<Mutation> schedule = {Mutation::EdgeDel(du, dv),
                                          Mutation::EdgeAdd(7, 70, 2.0)};
  auto patched = ApplyMutations(inst.graph, inst.state, schedule);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  const auto rebuilt = BuildFromScratch(patched->graph, patched->state);

  for (const uint32_t threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    RepairOptions options;
    options.num_threads = threads;
    // A tight budget forces several blocks, so dirty walks cross block
    // boundaries mid-trajectory.
    options.block_budget_bytes = 2048;
    auto outcome = SketchRepairer::Repair(
        *base, patched->graph, patched->state.campaigns[0], meta,
        patched->dirty_nodes, /*base_alias=*/nullptr, options);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ExpectBitIdentical(*rebuilt, *outcome->sketch,
                       patched->state.campaigns[0].initial_opinions);
    EXPECT_EQ(outcome->alias, nullptr);  // OOC path builds no tables
  }
}

TEST(DynEquivalenceTest, OpinionOnlyBatchKeepsGraphAndTrajectories) {
  auto inst = MakeRandomInstance(60, 300, 2, 71);
  const auto base = BuildFromScratch(inst.graph, inst.state);
  const store::SketchMeta meta = MetaFor();

  auto patched = ApplyMutations(inst.graph, inst.state,
                                std::vector<Mutation>{
                                    Mutation::SetOpinion(0, 10, 0.25),
                                    Mutation::SetOpinion(0, 11, 0.75)});
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  EXPECT_TRUE(patched->dirty_nodes.empty());
  EXPECT_EQ(patched->opinions_set, 2u);
  // The graph is a byte-identical copy.
  ASSERT_EQ(patched->graph.num_edges(), inst.graph.num_edges());
  const auto a = patched->graph.InWeightsRaw();
  const auto b = inst.graph.InWeightsRaw();
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);

  // Repair with zero dirty nodes copies the frozen layer, and views reset
  // from the new opinions still match the rebuild.
  auto outcome = SketchRepairer::Repair(
      *base, patched->graph, patched->state.campaigns[0], meta,
      patched->dirty_nodes, /*base_alias=*/nullptr, RepairOptions{});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->stats.walks_repaired, 0u);
  ExpectBitIdentical(*BuildFromScratch(patched->graph, patched->state),
                     *outcome->sketch,
                     patched->state.campaigns[0].initial_opinions);
}

TEST(DynEquivalenceTest, SeedSelectionMatchesForAllFiveRules) {
  auto inst = MakeRandomInstance(80, 450, 3, 53);
  const auto base = BuildFromScratch(inst.graph, inst.state, /*theta=*/6000);
  const store::SketchMeta meta = MetaFor(/*theta=*/6000);

  const auto [du, dv] = EdgeAt(inst.graph, 99);
  auto patched = ApplyMutations(inst.graph, inst.state,
                                std::vector<Mutation>{
                                    Mutation::EdgeAdd(4, 40, 1.0),
                                    Mutation::EdgeDel(du, dv)});
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();

  opinion::FJModel model(patched->graph);
  const voting::ScoreSpec specs[] = {
      voting::ScoreSpec::Cumulative(), voting::ScoreSpec::Plurality(),
      voting::ScoreSpec::PApproval(2),
      voting::ScoreSpec::PositionalPApproval({1.0, 0.6, 0.2}),
      voting::ScoreSpec::Copeland()};
  for (const auto& spec : specs) {
    SCOPED_TRACE(voting::ScoreKindName(spec.kind));
    voting::ScoreEvaluator ev(model, patched->state, 0, kHorizon, spec);
    // Fresh sketches per rule: greedy selection rewrites the dynamic
    // values layer in place.
    auto repaired = SketchRepairer::Repair(
        *base, patched->graph, patched->state.campaigns[0], meta,
        patched->dirty_nodes, /*base_alias=*/nullptr, RepairOptions{});
    ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
    // A repaired sketch is frozen-only; select the way a query does.
    repaired->sketch->ResetValues(patched->state.campaigns[0].initial_opinions);
    const auto rebuilt =
        BuildFromScratch(patched->graph, patched->state, /*theta=*/6000);

    core::EstimatedGreedyOptions greedy;
    greedy.evaluate_exact = false;
    const auto from_repair =
        core::EstimatedGreedySelect(ev, 5, repaired->sketch.get(), greedy);
    const auto from_rebuild =
        core::EstimatedGreedySelect(ev, 5, rebuilt.get(), greedy);
    EXPECT_EQ(from_repair.seeds, from_rebuild.seeds);
    EXPECT_DOUBLE_EQ(from_repair.score, from_rebuild.score);
  }
}

TEST(DynEquivalenceTest, SeedZeroSketchRepairsLikeRebuild) {
  auto inst = MakeRandomInstance(40, 200, 2, 5);
  const auto base = BuildFromScratch(inst.graph, inst.state, kTheta,
                                     /*seed=*/0);
  const auto schedule = Schedules(inst)[1];
  auto patched = ApplyMutations(inst.graph, inst.state, schedule);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  auto outcome = SketchRepairer::Repair(
      *base, patched->graph, patched->state.campaigns[0],
      MetaFor(kTheta, /*seed=*/0), patched->dirty_nodes, nullptr,
      RepairOptions{});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GT(outcome->stats.walks_repaired, 0u);
  const auto rebuilt = BuildFromScratch(patched->graph, patched->state,
                                        kTheta, /*seed=*/0);
  ExpectBitIdentical(*outcome->sketch, *rebuilt,
                     patched->state.campaigns[0].initial_opinions);
}

TEST(DynEquivalenceTest, RepairRejectsMetaSeedThatDidNotBuildTheSketch) {
  // The splice keeps each repaired walk's start, lambda and weight from the
  // base, which holds only if meta.master_seed built the base: walk j's
  // first draw is its start. A wrong seed must fail, not splice walks onto
  // starts they do not have.
  auto inst = MakeRandomInstance(120, 700, 2, 41);
  const auto base = BuildFromScratch(inst.graph, inst.state);
  auto patched = ApplyMutations(inst.graph, inst.state, Schedules(inst)[0]);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  for (const uint64_t budget : {uint64_t{0}, uint64_t{2048}}) {
    SCOPED_TRACE("block_budget_bytes=" + std::to_string(budget));
    RepairOptions options;
    options.block_budget_bytes = budget;
    auto outcome = SketchRepairer::Repair(
        *base, patched->graph, patched->state.campaigns[0],
        MetaFor(kTheta, kSeed + 1), patched->dirty_nodes, nullptr, options);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), Status::Code::kFailedPrecondition);
    EXPECT_NE(outcome.status().message().find("regenerated walk"),
              std::string::npos)
        << outcome.status().ToString();
  }
}

TEST(DynEquivalenceTest, EngineHostedWithSeedZeroAcceptsEdgeAdd) {
  auto engine = api::Engine::Open(api::EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  datasets::Dataset dataset = datasets::MakeDataset(
      datasets::DatasetName::kTwitterMask, 0.05, /*seed=*/7);
  const auto [u, v] = AbsentEdge(dataset.influence, 13);
  api::HostOptions host;
  host.theta = kTheta;
  host.horizon = kHorizon;
  host.num_threads = 2;
  host.rng_seed = 0;
  ASSERT_TRUE((*engine)->Host("default", std::move(dataset), host).ok());
  EXPECT_EQ((*engine)->sketch_meta().master_seed, 0u);

  const api::Response response =
      (*engine)->Execute(api::Request::EdgeAdd(u, v, 1.5));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.applied, 1u);
  EXPECT_EQ(response.walks_total, kTheta);
}

// ---- the patched graph ---------------------------------------------------

/// One CSR direction as plain arrays.
struct Csr {
  std::vector<uint64_t> offsets;
  std::vector<graph::NodeId> ends;
  std::vector<double> weights;
};

/// The in-CSR after `batch`, rebuilt naively: every in-row materialized,
/// each edge edit applied to its row in order (sources kept sorted, the
/// row renormalized after every edit), then the rows concatenated.
Csr NaiveInCsr(const graph::Graph& graph, std::span<const Mutation> batch) {
  const uint32_t n = graph.num_nodes();
  std::vector<std::vector<graph::NodeId>> sources(n);
  std::vector<std::vector<double>> weights(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    const auto in = graph.InNeighbors(v);
    const auto w = graph.InWeights(v);
    sources[v].assign(in.begin(), in.end());
    weights[v].assign(w.begin(), w.end());
  }
  for (const Mutation& m : batch) {
    if (m.kind == Mutation::Kind::kSetOpinion) continue;
    std::vector<graph::NodeId>& row = sources[m.v];
    std::vector<double>& row_weights = weights[m.v];
    const auto at = std::lower_bound(row.begin(), row.end(), m.u) -
                    row.begin();
    if (m.kind == Mutation::Kind::kEdgeAdd) {
      row.insert(row.begin() + at, m.u);
      row_weights.insert(row_weights.begin() + at, m.value);
    } else {
      row.erase(row.begin() + at);
      row_weights.erase(row_weights.begin() + at);
    }
    double sum = 0.0;
    for (const double w : row_weights) sum += w;
    if (sum > 0.0) {
      for (double& w : row_weights) w /= sum;
    }
  }
  Csr in;
  in.offsets.push_back(0);
  for (graph::NodeId v = 0; v < n; ++v) {
    in.ends.insert(in.ends.end(), sources[v].begin(), sources[v].end());
    in.weights.insert(in.weights.end(), weights[v].begin(), weights[v].end());
    in.offsets.push_back(in.ends.size());
  }
  return in;
}

/// GraphBuilder's stable counting pass: the out-CSR derived from an
/// in-CSR, which ApplyMutations once ran over the whole patched graph.
Csr CountingPassOutCsr(uint32_t n, const Csr& in) {
  Csr out;
  out.offsets.assign(n + 1, 0);
  for (const graph::NodeId u : in.ends) ++out.offsets[u + 1];
  for (uint32_t u = 0; u < n; ++u) out.offsets[u + 1] += out.offsets[u];
  out.ends.resize(in.ends.size());
  out.weights.resize(in.ends.size());
  std::vector<uint64_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (graph::NodeId v = 0; v < n; ++v) {
    for (uint64_t e = in.offsets[v]; e < in.offsets[v + 1]; ++e) {
      const graph::NodeId u = in.ends[e];
      out.ends[cursor[u]] = v;
      out.weights[cursor[u]] = in.weights[e];
      ++cursor[u];
    }
  }
  return out;
}

template <typename T>
void ExpectSameBytes(std::span<const T> actual, std::span<const T> expected,
                     const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(std::memcmp(&actual[i], &expected[i], sizeof(T)), 0)
        << what << " element " << i;
  }
}

/// All six CSR arrays of `actual` equal `expected`'s, byte for byte.
void ExpectSameGraphBytes(const graph::Graph& actual,
                          const graph::Graph& expected,
                          const std::string& label) {
  ExpectSameBytes(actual.OutOffsets(), expected.OutOffsets(),
                  label + " out-offsets");
  ExpectSameBytes(actual.OutTargets(), expected.OutTargets(),
                  label + " out-targets");
  ExpectSameBytes(actual.OutWeightsRaw(), expected.OutWeightsRaw(),
                  label + " out-weights");
  ExpectSameBytes(actual.InOffsets(), expected.InOffsets(),
                  label + " in-offsets");
  ExpectSameBytes(actual.InSources(), expected.InSources(),
                  label + " in-sources");
  ExpectSameBytes(actual.InWeightsRaw(), expected.InWeightsRaw(),
                  label + " in-weights");
}

/// Patches (graph, state) with `batch` and checks the patched graph byte
/// for byte against the oracle: NaiveInCsr, and the counting pass over it.
void ExpectBuilderCanonicalPatch(const graph::Graph& graph,
                                 const opinion::MultiCampaignState& state,
                                 const std::vector<Mutation>& batch,
                                 const std::string& label) {
  auto patched = ApplyMutations(graph, state, batch);
  ASSERT_TRUE(patched.ok()) << label << ": " << patched.status().ToString();
  Csr in = NaiveInCsr(graph, batch);
  Csr out = CountingPassOutCsr(graph.num_nodes(), in);
  auto oracle = graph::Graph::FromCsr(
      graph.num_nodes(), std::move(out.offsets), std::move(out.ends),
      std::move(out.weights), std::move(in.offsets), std::move(in.ends),
      std::move(in.weights));
  ASSERT_TRUE(oracle.ok()) << label << ": " << oracle.status().ToString();
  ExpectSameGraphBytes(patched->graph, *oracle, label);
}

TEST(DynEquivalenceTest, PatchedGraphIsBuilderCanonical) {
  // Hand cases on six nodes. Out-rows: 0 {5}, 1 {0, 2}, 2 {0, 4}, 3 {},
  // 4 {}, 5 {1}; in-rows: 0 {1, 2}, 1 {5}, 2 {1}, 3 {}, 4 {2}, 5 {0}.
  graph::GraphBuilder builder(6);
  builder.AddEdge(1, 0, 1.0);
  builder.AddEdge(2, 0, 3.0);
  builder.AddEdge(0, 5, 1.0);
  builder.AddEdge(2, 4, 1.0);
  builder.AddEdge(1, 2, 1.0);
  builder.AddEdge(5, 1, 1.0);
  auto built = builder.Build({.normalize_incoming = true});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const graph::Graph small = std::move(built).value();
  opinion::MultiCampaignState small_state;
  small_state.campaigns.resize(2);
  for (auto& campaign : small_state.campaigns) {
    campaign.initial_opinions.assign(6, 0.5);
    campaign.stubbornness.assign(6, 0.5);
  }
  const std::vector<std::pair<std::string, std::vector<Mutation>>> cases = {
      {"add into an empty in-row", {Mutation::EdgeAdd(1, 3, 1.0)}},
      {"delete a row's last in-edge", {Mutation::EdgeDel(2, 4)}},
      {"several edits to one row",
       {Mutation::EdgeAdd(3, 0, 1.0), Mutation::EdgeDel(1, 0),
        Mutation::EdgeAdd(4, 0, 2.0), Mutation::EdgeDel(3, 0)}},
      {"edits at nodes 0 and n-1",
       {Mutation::EdgeAdd(5, 0, 1.5), Mutation::EdgeDel(0, 5),
        Mutation::EdgeAdd(4, 5, 2.0)}},
      {"a source's out-row empties", {Mutation::EdgeDel(0, 5)}},
      {"a source's out-row gets its first entry",
       {Mutation::EdgeAdd(3, 1, 1.0)}},
      {"an entry lands between kept entries", {Mutation::EdgeAdd(2, 3, 0.5)}},
      {"an opinion-only batch", {Mutation::SetOpinion(1, 5, 0.125)}},
  };
  for (const auto& [label, batch] : cases) {
    ASSERT_NO_FATAL_FAILURE(
        ExpectBuilderCanonicalPatch(small, small_state, batch, label));
  }

  // An opinion-only batch hands back the input's graph bytes.
  auto opinion_only =
      ApplyMutations(small, small_state,
                     std::vector<Mutation>{Mutation::SetOpinion(0, 2, 1.0)});
  ASSERT_TRUE(opinion_only.ok()) << opinion_only.status().ToString();
  ExpectSameGraphBytes(opinion_only->graph, small, "opinion-only batch");

  // Seeded random rounds: batches of 1-12 mixed edits, drawn against the
  // edge set as the batch evolves it, and biased toward nodes 0, n-1 and
  // one hot node so rows take several edits and the ends of the node
  // range get patched. Every tenth batch sets opinions only.
  Rng rng(4049);
  for (int round = 0; round < 200; ++round) {
    const uint32_t n = 2 + static_cast<uint32_t>(rng.UniformInt(30));
    const uint64_t m = rng.UniformInt(3 * uint64_t{n} + 1);
    const RandomInstance inst =
        MakeRandomInstance(n, m, 2, 600 + static_cast<uint64_t>(round));
    std::set<std::pair<graph::NodeId, graph::NodeId>> present;  // (u, v)
    for (graph::NodeId v = 0; v < n; ++v) {
      for (const graph::NodeId u : inst.graph.InNeighbors(v)) {
        present.insert({u, v});
      }
    }
    const auto hot = static_cast<graph::NodeId>(rng.UniformInt(n));
    const auto pick = [&]() -> graph::NodeId {
      switch (rng.UniformInt(4)) {
        case 0:
          return 0;
        case 1:
          return n - 1;
        case 2:
          return hot;
        default:
          return static_cast<graph::NodeId>(rng.UniformInt(n));
      }
    };
    const bool opinions_only = round % 10 == 0;
    const uint64_t size = 1 + rng.UniformInt(12);
    std::vector<Mutation> batch;
    while (batch.size() < size) {
      const uint64_t dice = opinions_only ? 9 : rng.UniformInt(10);
      if (dice < 5) {
        const graph::NodeId u = pick(), v = pick();
        if (u == v || !present.insert({u, v}).second) continue;
        batch.push_back(Mutation::EdgeAdd(u, v, rng.Uniform(0.25, 3.0)));
      } else if (dice < 8 && !present.empty()) {
        auto it = present.begin();
        std::advance(it, rng.UniformInt(present.size()));
        batch.push_back(Mutation::EdgeDel(it->first, it->second));
        present.erase(it);
      } else {
        batch.push_back(Mutation::SetOpinion(
            static_cast<uint32_t>(rng.UniformInt(2)),
            static_cast<graph::NodeId>(rng.UniformInt(n)), rng.Uniform()));
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectBuilderCanonicalPatch(
        inst.graph, inst.state, batch, "round " + std::to_string(round)));
  }
}

TEST(DynEquivalenceTest, MutationValidationFailsClean) {
  auto inst = MakeRandomInstance(30, 150, 2, 9);
  const auto [du, dv] = EdgeAt(inst.graph, 0);

  // Duplicate edge: (du, dv) already exists.
  auto dup = ApplyMutations(inst.graph, inst.state,
                            std::vector<Mutation>{
                                Mutation::EdgeAdd(du, dv, 1.0)});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), Status::Code::kFailedPrecondition);

  // Deleting an absent edge: self-loops never exist post-normalization.
  auto missing = ApplyMutations(inst.graph, inst.state,
                                std::vector<Mutation>{
                                    Mutation::EdgeDel(dv, dv)});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), Status::Code::kNotFound);

  // Out-of-range endpoints and opinion values.
  EXPECT_EQ(ApplyMutations(inst.graph, inst.state,
                           std::vector<Mutation>{
                               Mutation::EdgeAdd(0, 999, 1.0)})
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(ApplyMutations(inst.graph, inst.state,
                           std::vector<Mutation>{
                               Mutation::SetOpinion(0, 3, 1.5)})
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(ApplyMutations(inst.graph, inst.state,
                           std::vector<Mutation>{
                               Mutation::SetOpinion(9, 3, 0.5)})
                .status()
                .code(),
            Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace voteopt::dyn
