#include "opinion/fj_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <latch>
#include <string>

#include "graph/builder.h"
#include "opinion/convergence.h"
#include "test_fixtures.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace voteopt::opinion {
namespace {

using test::MakePaperExample;
using test::MakeRandomInstance;

// ---------------------------------------------------------------------------
// The paper's running example (Fig. 1 / Table I): every opinion digit.
// ---------------------------------------------------------------------------

TEST(FJPaperExampleTest, NoSeedsHorizonOne) {
  auto ex = MakePaperExample();
  FJModel model(ex.graph);
  const auto b1 = model.Propagate(ex.state.campaigns[0], 1);
  EXPECT_NEAR(b1[0], 0.40, 1e-12);
  EXPECT_NEAR(b1[1], 0.80, 1e-12);
  EXPECT_NEAR(b1[2], 0.60, 1e-12);
  EXPECT_NEAR(b1[3], 0.75, 1e-12);
}

struct SeedCase {
  std::vector<graph::NodeId> seeds;
  std::array<double, 4> expected;  // Table I row
};

class FJTableITest : public ::testing::TestWithParam<SeedCase> {};

TEST_P(FJTableITest, MatchesTableIRow) {
  auto ex = MakePaperExample();
  FJModel model(ex.graph);
  const auto b1 =
      model.PropagateWithSeeds(ex.state.campaigns[0], GetParam().seeds, 1);
  for (int v = 0; v < 4; ++v) {
    EXPECT_NEAR(b1[v], GetParam().expected[v], 1e-12) << "user " << v + 1;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSeedSets, FJTableITest,
    ::testing::Values(
        SeedCase{{}, {0.40, 0.80, 0.60, 0.75}},
        SeedCase{{0}, {1.00, 0.80, 0.75, 0.75}},
        SeedCase{{1}, {0.40, 1.00, 0.65, 0.75}},
        SeedCase{{2}, {0.40, 0.80, 1.00, 0.95}},
        SeedCase{{3}, {0.40, 0.80, 0.60, 1.00}},
        SeedCase{{0, 1}, {1.00, 1.00, 0.80, 0.75}}));

TEST(FJPaperExampleTest, CompetitorFullyStubbornKeepsCaptionValues) {
  auto ex = MakePaperExample();
  FJModel model(ex.graph);
  const auto c2 = model.Propagate(ex.state.campaigns[1], 1);
  EXPECT_NEAR(c2[0], 0.35, 1e-12);
  EXPECT_NEAR(c2[1], 0.75, 1e-12);
  EXPECT_NEAR(c2[2], 0.78, 1e-12);
  EXPECT_NEAR(c2[3], 0.90, 1e-12);
}

// ---------------------------------------------------------------------------
// Model semantics.
// ---------------------------------------------------------------------------

TEST(FJModelTest, HorizonZeroIsInitialOpinions) {
  auto ex = MakePaperExample();
  FJModel model(ex.graph);
  EXPECT_EQ(model.Propagate(ex.state.campaigns[0], 0),
            ex.state.campaigns[0].initial_opinions);
}

TEST(FJModelTest, NodesWithoutInEdgesRetainInitialOpinion) {
  auto ex = MakePaperExample();
  FJModel model(ex.graph);
  for (uint32_t t : {1u, 5u, 20u}) {
    const auto b = model.Propagate(ex.state.campaigns[0], t);
    EXPECT_DOUBLE_EQ(b[0], 0.40);
    EXPECT_DOUBLE_EQ(b[1], 0.80);
  }
}

TEST(FJModelTest, FullyStubbornUserNeverMoves) {
  auto inst = MakeRandomInstance(30, 120, 2, 11);
  inst.state.campaigns[0].stubbornness[5] = 1.0;
  FJModel model(inst.graph);
  const auto b = model.Propagate(inst.state.campaigns[0], 15);
  EXPECT_DOUBLE_EQ(b[5], inst.state.campaigns[0].initial_opinions[5]);
}

TEST(FJModelTest, OpinionsStayInUnitInterval) {
  auto inst = MakeRandomInstance(100, 600, 2, 13);
  FJModel model(inst.graph);
  for (uint32_t t : {1u, 3u, 10u, 30u}) {
    const auto b = model.Propagate(inst.state.campaigns[0], t);
    for (double x : b) {
      ASSERT_GE(x, 0.0);
      ASSERT_LE(x, 1.0);
    }
  }
}

TEST(FJModelTest, DeGrootIsSpecialCaseWithZeroStubbornness) {
  // A 2-node cycle with d = 0 oscillates: pure DeGroot averaging.
  graph::GraphBuilder builder(2);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 0, 1.0);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  Campaign campaign;
  campaign.initial_opinions = {0.0, 1.0};
  campaign.stubbornness = {0.0, 0.0};
  FJModel model(*g);
  const auto b1 = model.Propagate(campaign, 1);
  EXPECT_DOUBLE_EQ(b1[0], 1.0);  // swapped
  EXPECT_DOUBLE_EQ(b1[1], 0.0);
  const auto b2 = model.Propagate(campaign, 2);
  EXPECT_DOUBLE_EQ(b2[0], 0.0);  // swapped back
  EXPECT_DOUBLE_EQ(b2[1], 1.0);
}

TEST(FJModelTest, StepMatchesPropagate) {
  auto inst = MakeRandomInstance(40, 200, 2, 17);
  FJModel model(inst.graph);
  const auto& campaign = inst.state.campaigns[0];
  std::vector<double> current = campaign.initial_opinions;
  std::vector<double> next;
  for (int t = 1; t <= 4; ++t) {
    model.Step(current, campaign.initial_opinions, campaign.stubbornness,
               &next);
    std::swap(current, next);
    EXPECT_EQ(current, model.Propagate(campaign, t)) << "t=" << t;
  }
}

TEST(FJModelTest, TrajectoryHasHorizonPlusOneSnapshots) {
  auto ex = MakePaperExample();
  FJModel model(ex.graph);
  const auto trajectory = model.Trajectory(ex.state.campaigns[0], 7);
  ASSERT_EQ(trajectory.size(), 8u);
  EXPECT_EQ(trajectory[0], ex.state.campaigns[0].initial_opinions);
  EXPECT_EQ(trajectory[3], model.Propagate(ex.state.campaigns[0], 3));
  EXPECT_EQ(trajectory[7], model.Propagate(ex.state.campaigns[0], 7));
}

TEST(FJModelTest, SeedsAreMonotone) {
  // Adding a seed never lowers any user's opinion (basis of Thm. 3).
  auto inst = MakeRandomInstance(50, 300, 2, 19);
  FJModel model(inst.graph);
  const auto& campaign = inst.state.campaigns[0];
  const auto base = model.PropagateWithSeeds(campaign, {3}, 10);
  const auto more = model.PropagateWithSeeds(campaign, {3, 7}, 10);
  for (size_t v = 0; v < base.size(); ++v) {
    EXPECT_GE(more[v], base[v] - 1e-12);
  }
}

// ---------------------------------------------------------------------------
// The step schedule returns the full sweep's bytes.
// ---------------------------------------------------------------------------

// The oracle: one full FJ sweep over every one of the n rows, the loop the
// step schedule must reproduce byte for byte.
void FullSweepStep(const graph::Graph& graph,
                   const std::vector<double>& current,
                   const std::vector<double>& initial,
                   const std::vector<double>& stubbornness,
                   std::vector<double>* out) {
  const uint32_t n = graph.num_nodes();
  out->resize(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    const auto sources = graph.InNeighbors(v);
    if (sources.empty()) {
      // No social signal: the row holds its previous opinion.
      (*out)[v] = current[v];
      continue;
    }
    const auto weights = graph.InWeights(v);
    double aggregated = 0.0;
    for (size_t i = 0; i < sources.size(); ++i) {
      aggregated += weights[i] * current[sources[i]];
    }
    const double d = stubbornness[v];
    (*out)[v] = (1.0 - d) * aggregated + d * initial[v];
  }
}

// The oracle's propagation: ApplySeeds, then `horizon` full sweeps.
// result[s] is what Propagate(seeded campaign, s) returned.
std::vector<std::vector<double>> FullSweepTrajectory(
    const graph::Graph& graph, const Campaign& campaign,
    const std::vector<graph::NodeId>& seeds, uint32_t horizon) {
  const Campaign seeded = ApplySeeds(campaign, seeds);
  std::vector<std::vector<double>> trajectory = {seeded.initial_opinions};
  std::vector<double> next;
  for (uint32_t step = 0; step < horizon; ++step) {
    FullSweepStep(graph, trajectory.back(), seeded.initial_opinions,
                  seeded.stubbornness, &next);
    trajectory.push_back(next);
  }
  return trajectory;
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Compares every public propagation path of a fresh model with the oracle,
// byte for byte, at every horizon 0..max_horizon: PropagateWithSeeds for
// each seed set, Propagate, every Trajectory snapshot, and Step from every
// oracle snapshot (seeded and unseeded).
void ExpectScheduleMatchesFullSweep(
    const graph::Graph& graph, const Campaign& campaign,
    const std::vector<std::vector<graph::NodeId>>& seed_sets,
    uint32_t max_horizon, const std::string& label) {
  const FJModel model(graph);
  for (const auto& seeds : seed_sets) {
    const auto oracle =
        FullSweepTrajectory(graph, campaign, seeds, max_horizon);
    for (uint32_t t = 0; t <= max_horizon; ++t) {
      ASSERT_TRUE(
          SameBytes(model.PropagateWithSeeds(campaign, seeds, t), oracle[t]))
          << label << ": PropagateWithSeeds, " << seeds.size()
          << " seeds, t=" << t;
    }
    const Campaign seeded = ApplySeeds(campaign, seeds);
    std::vector<double> out;
    for (uint32_t t = 0; t < max_horizon; ++t) {
      model.Step(oracle[t], seeded.initial_opinions, seeded.stubbornness,
                 &out);
      ASSERT_TRUE(SameBytes(out, oracle[t + 1]))
          << label << ": seeded Step from t=" << t;
    }
  }
  const auto oracle = FullSweepTrajectory(graph, campaign, {}, max_horizon);
  for (uint32_t t = 0; t <= max_horizon; ++t) {
    ASSERT_TRUE(SameBytes(model.Propagate(campaign, t), oracle[t]))
        << label << ": Propagate, t=" << t;
  }
  const auto trajectory = model.Trajectory(campaign, max_horizon);
  ASSERT_EQ(trajectory.size(), oracle.size()) << label;
  for (uint32_t t = 0; t <= max_horizon; ++t) {
    ASSERT_TRUE(SameBytes(trajectory[t], oracle[t]))
        << label << ": Trajectory snapshot " << t;
  }
  std::vector<double> out;
  for (uint32_t t = 0; t < max_horizon; ++t) {
    model.Step(oracle[t], campaign.initial_opinions, campaign.stubbornness,
               &out);
    ASSERT_TRUE(SameBytes(out, oracle[t + 1]))
        << label << ": Step from t=" << t;
  }
}

// b0 uniform in [0, 1). With `extremes`, d cycles through 0, 1 and values
// in between, so the case holds rows with d = 0 and rows with d = 1;
// without, every d lies in [0.1, 0.9], so no row is pinned to its b0 or
// forgets it.
Campaign VariedCampaign(uint32_t n, uint64_t seed, bool extremes = true) {
  Rng rng(seed);
  Campaign campaign;
  campaign.initial_opinions.resize(n);
  campaign.stubbornness.resize(n);
  for (uint32_t v = 0; v < n; ++v) {
    campaign.initial_opinions[v] = rng.Uniform();
    campaign.stubbornness[v] = rng.Uniform(0.1, 0.9);
    if (extremes && v % 4 == 0) campaign.stubbornness[v] = 0.0;
    if (extremes && v % 4 == 1) campaign.stubbornness[v] = 1.0;
  }
  return campaign;
}

graph::Graph BuildOrDie(const graph::GraphBuilder& builder,
                        graph::GraphBuilder::BuildOptions options = {}) {
  options.normalize_incoming = true;
  auto built = builder.Build(options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

TEST(FJModelTest, ScheduledPropagationMatchesFullSweep) {
  // A chain longer than the horizon: row i settles at step i, so the
  // horizons around the tail's settle step (38, 39, 40) and below it (30)
  // both occur. No d is 0 or 1, so row i keeps changing until step i.
  {
    graph::GraphBuilder builder(40);
    for (graph::NodeId v = 0; v + 1 < 40; ++v) builder.AddEdge(v, v + 1, 1.0);
    const graph::Graph g = BuildOrDie(builder);
    ExpectScheduleMatchesFullSweep(
        g, VariedCampaign(40, 1, /*extremes=*/false),
        {{}, {0}, {5}, {39}, {7, 7}, {0, 20, 38}}, 42, "chain");
    ExpectScheduleMatchesFullSweep(g, VariedCampaign(40, 5), {{}, {3}}, 42,
                                   "chain with d = 0 and d = 1 rows");
  }
  // A DAG feeding a cycle, with a row downstream of the cycle and an
  // unmerged parallel edge: sources 0 and 1; DAG rows 2 (settles at 1) and
  // 3 (settles at 2); cycle 4 -> 5 -> 6 -> 4 fed by 3; 7 and 8 downstream.
  {
    graph::GraphBuilder builder(9);
    builder.AddEdge(0, 2, 1.0);
    builder.AddEdge(1, 2, 2.0);
    builder.AddEdge(2, 3, 1.0);
    builder.AddEdge(2, 3, 0.5);
    builder.AddEdge(3, 4, 1.0);
    builder.AddEdge(4, 5, 1.0);
    builder.AddEdge(5, 6, 1.0);
    builder.AddEdge(6, 4, 1.0);
    builder.AddEdge(6, 7, 1.0);
    builder.AddEdge(0, 7, 1.0);
    builder.AddEdge(7, 8, 1.0);
    graph::GraphBuilder::BuildOptions options;
    options.merge_parallel_edges = false;
    const graph::Graph g = BuildOrDie(builder, options);
    ASSERT_EQ(g.InDegree(3), 2u);
    ExpectScheduleMatchesFullSweep(
        g, VariedCampaign(9, 2),
        {{}, {0}, {1}, {2}, {3}, {5}, {8}, {4, 4}, {0, 3, 6}}, 30,
        "dag into cycle");
  }
  // A self-loop: row 1 reads itself, so it and row 2 never settle.
  {
    graph::GraphBuilder builder(4);
    builder.AddEdge(0, 1, 1.0);
    builder.AddEdge(1, 1, 1.0);
    builder.AddEdge(1, 2, 1.0);
    builder.AddEdge(0, 3, 1.0);
    graph::GraphBuilder::BuildOptions options;
    options.allow_self_loops = true;
    const graph::Graph g = BuildOrDie(builder, options);
    ASSERT_EQ(g.InDegree(1), 2u);
    ExpectScheduleMatchesFullSweep(g, VariedCampaign(4, 3),
                                   {{}, {1}, {3}, {1, 1}, {0, 2}}, 30,
                                   "self-loop");
  }
  // An edgeless graph: every row keeps b0, seeds aside.
  {
    const graph::Graph g = BuildOrDie(graph::GraphBuilder(5));
    ExpectScheduleMatchesFullSweep(g, VariedCampaign(5, 4),
                                   {{}, {2}, {4, 4}}, 30, "edgeless");
  }
  // Seeded random instances: sparse ones are mostly DAG, denser ones mostly
  // cyclic; a quarter of the rows are d = 0 and a quarter d = 1.
  Rng rng(2026);
  for (uint64_t round = 0; round < 300; ++round) {
    const uint32_t n = 2 + static_cast<uint32_t>(rng.UniformInt(40));
    const uint64_t m = rng.UniformInt(2 * n + 1);
    auto inst = MakeRandomInstance(n, m, 1, 1000 + round);
    Campaign campaign = inst.state.campaigns[0];
    for (uint32_t v = 0; v < n; ++v) {
      if (v % 4 == 0) campaign.stubbornness[v] = 0.0;
      if (v % 4 == 1) campaign.stubbornness[v] = 1.0;
    }
    std::vector<graph::NodeId> seeds;
    const uint64_t num_seeds = rng.UniformInt(4);
    for (uint64_t i = 0; i < num_seeds; ++i) {
      seeds.push_back(static_cast<graph::NodeId>(rng.UniformInt(n)));
    }
    if (!seeds.empty() && round % 3 == 0) seeds.push_back(seeds.front());
    ExpectScheduleMatchesFullSweep(inst.graph, campaign, {{}, seeds}, 30,
                                   "round " + std::to_string(round));
    if (HasFatalFailure()) return;
  }
}

TEST(FJModelTest, ConcurrentFirstPropagationsCompileOneSchedule) {
  // The schedule compiles on the first propagation; four tasks released
  // together race it on each freshly built shared model.
  auto inst = MakeRandomInstance(3000, 3600, 1, 23);
  const Campaign& campaign = inst.state.campaigns[0];
  const std::vector<graph::NodeId> seeds = {3, 141, 592, 653};
  const auto oracle = FullSweepTrajectory(inst.graph, campaign, seeds, 20);
  ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    const FJModel model(inst.graph);
    std::latch start(4);
    std::vector<std::future<std::vector<double>>> results;
    for (int task = 0; task < 4; ++task) {
      results.push_back(pool.Submit([&] {
        start.arrive_and_wait();
        return model.PropagateWithSeeds(campaign, seeds, 20);
      }));
    }
    for (auto& result : results) {
      EXPECT_TRUE(SameBytes(result.get(), oracle[20])) << "round " << round;
    }
  }
}

TEST(ApplySeedsTest, RaisesOpinionAndStubbornnessToOne) {
  auto ex = MakePaperExample();
  const Campaign seeded = ApplySeeds(ex.state.campaigns[0], {2});
  EXPECT_DOUBLE_EQ(seeded.initial_opinions[2], 1.0);
  EXPECT_DOUBLE_EQ(seeded.stubbornness[2], 1.0);
  // Original untouched.
  EXPECT_DOUBLE_EQ(ex.state.campaigns[0].initial_opinions[2], 0.60);
  // Other entries untouched.
  EXPECT_DOUBLE_EQ(seeded.initial_opinions[0], 0.40);
}

// ---------------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------------

TEST(CampaignValidationTest, RejectsWrongSize) {
  Campaign c;
  c.initial_opinions = {0.5};
  c.stubbornness = {0.5};
  EXPECT_FALSE(c.Validate(2).ok());
}

TEST(CampaignValidationTest, RejectsOutOfRangeValues) {
  Campaign c;
  c.initial_opinions = {0.5, 1.5};
  c.stubbornness = {0.5, 0.5};
  EXPECT_EQ(c.Validate(2).code(), Status::Code::kOutOfRange);
  c.initial_opinions = {0.5, 0.5};
  c.stubbornness = {-0.1, 0.5};
  EXPECT_EQ(c.Validate(2).code(), Status::Code::kOutOfRange);
}

TEST(StateValidationTest, RequiresAtLeastTwoCandidates) {
  MultiCampaignState state;
  state.campaigns.resize(1);
  state.campaigns[0].initial_opinions = {0.5};
  state.campaigns[0].stubbornness = {0.5};
  EXPECT_FALSE(state.Validate(1).ok());
}

TEST(StateValidationTest, PaperExampleValidates) {
  auto ex = MakePaperExample();
  EXPECT_TRUE(ex.state.Validate(4).ok());
}

// ---------------------------------------------------------------------------
// Convergence utilities.
// ---------------------------------------------------------------------------

TEST(ConvergenceTest, FractionChangedRespectsTolerance) {
  std::vector<double> prev = {0.5, 0.5, 0.5, 0.5};
  std::vector<double> curr = {0.5, 0.505, 0.6, 0.5};
  // 2% tolerance: |0.005| <= 0.01 stays; |0.1| > 0.01 counts.
  EXPECT_DOUBLE_EQ(FractionChanged(prev, curr, 2.0), 0.25);
  EXPECT_DOUBLE_EQ(FractionChanged(prev, curr, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(FractionChanged(prev, prev, 0.0), 0.0);
}

TEST(ConvergenceTest, HasConverged) {
  std::vector<double> a = {0.2, 0.3};
  std::vector<double> b = {0.2 + 1e-7, 0.3};
  EXPECT_TRUE(HasConverged(a, b, 1e-6));
  EXPECT_FALSE(HasConverged(a, {0.3, 0.3}, 1e-6));
}

TEST(ConvergenceTest, StubbornCampaignConvergesOnPaperExample) {
  auto ex = MakePaperExample();
  FJModel model(ex.graph);
  const auto t30 = model.Propagate(ex.state.campaigns[0], 30);
  const auto t31 = model.Propagate(ex.state.campaigns[0], 31);
  EXPECT_TRUE(HasConverged(t30, t31, 1e-9));
}

TEST(ObliviousNodesTest, DetectsUnreachableNonStubborn) {
  // 0 -> 1; node 2 isolated and non-stubborn; node 0 stubborn.
  graph::GraphBuilder builder(3);
  builder.AddEdge(0, 1, 1.0);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  Campaign campaign;
  campaign.initial_opinions = {0.5, 0.5, 0.5};
  campaign.stubbornness = {0.8, 0.0, 0.0};
  const auto oblivious = FindObliviousNodes(*g, campaign);
  EXPECT_EQ(oblivious, std::vector<graph::NodeId>{2});
}

TEST(ObliviousNodesTest, NoObliviousWhenAllStubborn) {
  auto ex = MakePaperExample();
  EXPECT_TRUE(FindObliviousNodes(ex.graph, ex.state.campaigns[0]).empty());
}

}  // namespace
}  // namespace voteopt::opinion
