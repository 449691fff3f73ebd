#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/accuracy.h"
#include "core/estimated_greedy.h"
#include "core/greedy_dm.h"
#include "core/rw_greedy.h"
#include "core/sketch.h"
#include "core/walk_engine.h"
#include "core/walk_set.h"
#include "graph/alias_table.h"
#include "test_fixtures.h"
#include "util/rng.h"
#include "util/stats.h"

namespace voteopt::core {
namespace {

using test::MakePaperExample;
using test::MakeRandomInstance;

// ---------------------------------------------------------------------------
// WalkSet storage and truncation semantics.
// ---------------------------------------------------------------------------

TEST(WalkSetTest, PostingsRecordFirstOccurrenceOnly) {
  WalkSet walks(5);
  walks.AddWalk({0, 1, 2, 1, 3});  // node 1 appears twice
  walks.Finalize({0.1, 0.2, 0.3, 0.4, 0.5});
  const auto postings = walks.PostingsOf(1);
  ASSERT_EQ(postings.size(), 1u);
  EXPECT_EQ(postings[0].walk, 0u);
  EXPECT_EQ(postings[0].pos, 1u);
}

TEST(WalkSetTest, ValueIsInitialOpinionOfEndNode) {
  WalkSet walks(4);
  walks.AddWalk({0, 2, 3});
  walks.AddWalk({1});
  walks.Finalize({0.9, 0.8, 0.7, 0.25});
  EXPECT_DOUBLE_EQ(walks.Value(0), 0.25);  // ends at node 3
  EXPECT_DOUBLE_EQ(walks.Value(1), 0.8);   // single-node walk
  EXPECT_DOUBLE_EQ(walks.EstimatedOpinion(0), 0.25);
  EXPECT_DOUBLE_EQ(walks.EstimatedOpinion(1), 0.8);
}

TEST(WalkSetTest, LambdaCountsWalksPerStart) {
  WalkSet walks(3);
  walks.AddWalk({0, 1});
  walks.AddWalk({0, 2});
  walks.AddWalk({1});
  walks.Finalize({0.0, 0.5, 1.0});
  EXPECT_EQ(walks.Lambda(0), 2u);
  EXPECT_EQ(walks.Lambda(1), 1u);
  EXPECT_EQ(walks.Lambda(2), 0u);
  EXPECT_DOUBLE_EQ(walks.EstimatedOpinion(0), 0.75);  // (0.5 + 1.0)/2
  EXPECT_DOUBLE_EQ(walks.EstimatedOpinion(2, 0.123), 0.123);  // fallback
}

TEST(WalkSetTest, ShareFrozenClonesDynamicStateIndependently) {
  auto owner = std::make_shared<WalkSet>(4);
  owner->AddWalk({0, 2, 3});
  owner->AddWalk({1, 2});
  owner->AddWalk({0, 1});
  const std::vector<double> opinions{0.9, 0.8, 0.7, 0.25};
  owner->Finalize(opinions);

  // The clone aliases the frozen arrays (zero-copy) ...
  auto clone = owner->ShareFrozen(owner);
  EXPECT_TRUE(clone->adopted());
  EXPECT_EQ(clone->frozen().nodes.data(), owner->frozen().nodes.data());
  EXPECT_EQ(clone->num_walks(), owner->num_walks());

  // ... but owns its dynamic state: truncating in the clone must leave the
  // owner's values untouched (the concurrent-serving contract).
  clone->ResetValues(opinions);
  clone->Truncate(2, [](uint32_t, double) {});
  EXPECT_DOUBLE_EQ(clone->Value(0), 1.0);
  EXPECT_DOUBLE_EQ(clone->Value(1), 1.0);
  EXPECT_DOUBLE_EQ(owner->Value(0), 0.25);
  EXPECT_DOUBLE_EQ(owner->Value(1), 0.7);  // {1, 2} ends at node 2
  EXPECT_DOUBLE_EQ(owner->EstimatedOpinion(0), (0.25 + 0.8) / 2);

  // A second clone resets from the pristine frozen data, unaffected by the
  // first clone's truncations.
  auto other = owner->ShareFrozen(owner);
  other->ResetValues(opinions);
  EXPECT_DOUBLE_EQ(other->Value(0), 0.25);

  // The keep-alive pins the owner: clones outlive the caller's handle.
  owner.reset();
  EXPECT_DOUBLE_EQ(other->Value(0), 0.25);
  other->Truncate(0, [](uint32_t, double) {});
  EXPECT_DOUBLE_EQ(other->Value(0), 1.0);
}

TEST(WalkSetTest, TruncationSetsValueToOneAndShortens) {
  WalkSet walks(4);
  walks.AddWalk({0, 1, 2, 3});
  walks.Finalize({0.1, 0.2, 0.3, 0.4});
  int changed = 0;
  walks.Truncate(2, [&](uint32_t walk, double old_value) {
    ++changed;
    EXPECT_EQ(walk, 0u);
    EXPECT_DOUBLE_EQ(old_value, 0.4);
  });
  EXPECT_EQ(changed, 1);
  EXPECT_DOUBLE_EQ(walks.Value(0), 1.0);
  EXPECT_EQ(walks.EffectiveLen(0), 3u);
  EXPECT_DOUBLE_EQ(walks.EstimatedOpinion(0), 1.0);
}

TEST(WalkSetTest, TruncationAtFirstSeedOccurrenceWins) {
  WalkSet walks(5);
  walks.AddWalk({0, 1, 2, 3, 4});
  walks.Finalize({0.1, 0.2, 0.3, 0.4, 0.5});
  walks.Truncate(3, [](uint32_t, double) {});
  EXPECT_EQ(walks.EffectiveLen(0), 4u);
  // Truncating at an earlier node shortens further...
  walks.Truncate(1, [](uint32_t, double) {});
  EXPECT_EQ(walks.EffectiveLen(0), 2u);
  // ...but a later node is now beyond the effective end: no change.
  int changed = 0;
  walks.Truncate(2, [&](uint32_t, double) { ++changed; });
  EXPECT_EQ(changed, 0);
  EXPECT_EQ(walks.EffectiveLen(0), 2u);
}

TEST(WalkSetTest, TruncationAtStartPosition) {
  WalkSet walks(3);
  walks.AddWalk({1, 2});
  walks.Finalize({0.0, 0.5, 0.25});
  walks.Truncate(1, [](uint32_t, double) {});
  EXPECT_EQ(walks.EffectiveLen(0), 1u);
  EXPECT_DOUBLE_EQ(walks.Value(0), 1.0);  // seeding the start itself
}

// ---------------------------------------------------------------------------
// WalkSet::Splice: replacing walks in one pass, with a patched index, lands
// on the bytes of a full build over the spliced walk list (the assembly
// step of dyn repair, determinism ledger entry 10).
// ---------------------------------------------------------------------------

using WalkList = std::vector<std::vector<graph::NodeId>>;

WalkBuffer ToBuffer(const WalkList& walks) {
  WalkBuffer buffer;
  for (const auto& walk : walks) {
    buffer.nodes.insert(buffer.nodes.end(), walk.begin(), walk.end());
    buffer.lengths.push_back(static_cast<uint32_t>(walk.size()));
  }
  return buffer;
}

/// The from-scratch construction sequence of the sketch builders.
std::unique_ptr<WalkSet> BuildWeighted(uint32_t n, const WalkList& walks,
                                       const std::vector<double>& opinions) {
  auto set = std::make_unique<WalkSet>(n);
  set->AddWalks(ToBuffer(walks));
  set->Finalize(opinions);
  ApplySketchWeights(set.get(), n, walks.size());
  return set;
}

template <typename T>
::testing::AssertionResult SameBytes(std::span<const T> a,
                                     std::span<const T> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(T)) != 0) {
      return ::testing::AssertionFailure() << "first difference at " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Splices `replacements` over walks `indices` of a base built from
/// `walks` (adopted through AdoptFrozen when `adopt`), and compares the
/// result with a full build over the spliced list: every frozen array byte
/// for byte, then values, effective lengths and estimates after
/// ResetValues on both sides.
void ExpectSpliceMatchesFinalize(uint32_t n, const WalkList& walks,
                                 const std::vector<uint64_t>& indices,
                                 const WalkList& replacements,
                                 const std::vector<double>& opinions,
                                 bool adopt) {
  std::shared_ptr<const WalkSet> owner = BuildWeighted(n, walks, opinions);
  std::shared_ptr<const WalkSet> base = owner;
  if (adopt) base = owner->ShareFrozen(owner);
  ASSERT_EQ(base->adopted(), adopt);
  const auto spliced =
      WalkSet::Splice(*base, indices, ToBuffer(replacements));
  EXPECT_FALSE(spliced->adopted());

  WalkList expected_walks = walks;
  for (size_t i = 0; i < indices.size(); ++i) {
    expected_walks[indices[i]] = replacements[i];
  }
  const auto expected = BuildWeighted(n, expected_walks, opinions);
  const WalkSet::Frozen& got = spliced->frozen();
  const WalkSet::Frozen& want = expected->frozen();
  EXPECT_TRUE(SameBytes(got.nodes, want.nodes)) << "nodes";
  EXPECT_TRUE(SameBytes(got.offsets, want.offsets)) << "offsets";
  EXPECT_TRUE(SameBytes(got.starts, want.starts)) << "starts";
  EXPECT_TRUE(SameBytes(got.lambda, want.lambda)) << "lambda";
  EXPECT_TRUE(SameBytes(got.start_weight, want.start_weight))
      << "start weights";
  EXPECT_TRUE(SameBytes(got.index_offsets, want.index_offsets))
      << "index offsets";
  EXPECT_TRUE(SameBytes(got.index_entries, want.index_entries))
      << "index entries";

  spliced->ResetValues(opinions);
  expected->ResetValues(opinions);
  ASSERT_EQ(spliced->num_walks(), expected->num_walks());
  for (uint32_t w = 0; w < spliced->num_walks(); ++w) {
    ASSERT_EQ(spliced->Value(w), expected->Value(w)) << "walk " << w;
    ASSERT_EQ(spliced->EffectiveLen(w), expected->EffectiveLen(w))
        << "walk " << w;
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(spliced->EstimatedOpinion(v), expected->EstimatedOpinion(v))
        << "node " << v;
  }
}

TEST(WalkSetTest, SpliceMatchesFinalize) {
  const std::vector<double> opinions5{0.1, 0.3, 0.5, 0.7, 0.9};
  // Base: node 4 never occurs; node 1 occurs in walks 0 and 2 only.
  const WalkList base = {{0, 1, 2}, {3, 2}, {2, 1}, {0}, {3, 0, 3}};
  for (const bool adopt : {false, true}) {
    SCOPED_TRACE(adopt ? "adopted base" : "owned base");
    // No walk replaced: the splice is a copy.
    ExpectSpliceMatchesFinalize(5, base, {}, {}, opinions5, adopt);
    // Every walk replaced.
    ExpectSpliceMatchesFinalize(
        5, base, {0, 1, 2, 3, 4},
        {{0, 4}, {3}, {2, 2, 0}, {0, 1, 3, 4}, {3, 2}}, opinions5, adopt);
    // The first and the last walk; longer and shorter replacements.
    ExpectSpliceMatchesFinalize(5, base, {0, 4}, {{0, 3, 2, 1, 4, 0}, {3}},
                                opinions5, adopt);
    // Equal lengths, different nodes.
    ExpectSpliceMatchesFinalize(5, base, {1, 3}, {{3, 0}, {0}}, opinions5,
                                adopt);
    // Node 1 loses every posting; node 4 gains its first.
    ExpectSpliceMatchesFinalize(5, base, {0, 2}, {{0, 4, 2}, {2, 4}},
                                opinions5, adopt);
    // A node twice in one replacement: only its first position is posted.
    ExpectSpliceMatchesFinalize(5, base, {2}, {{2, 0, 2, 0, 1, 2}},
                                opinions5, adopt);
  }

  // Seeded random rounds: n <= 12, theta <= 64, lengths 1-6, repeats
  // allowed; the replaced subset ranges from none to all.
  Rng rng(2024);
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto n = static_cast<uint32_t>(1 + rng.UniformInt(12));
    const uint64_t theta = 1 + rng.UniformInt(64);
    auto random_walk = [&](graph::NodeId start) {
      std::vector<graph::NodeId> walk{start};
      const uint64_t extra = rng.UniformInt(6);
      for (uint64_t i = 0; i < extra; ++i) {
        walk.push_back(static_cast<graph::NodeId>(rng.UniformInt(n)));
      }
      return walk;
    };
    WalkList walks;
    for (uint64_t j = 0; j < theta; ++j) {
      walks.push_back(
          random_walk(static_cast<graph::NodeId>(rng.UniformInt(n))));
    }
    std::vector<double> opinions(n);
    for (double& b : opinions) b = rng.Uniform();
    const double share = round % 5 == 0   ? 0.0
                         : round % 5 == 1 ? 1.0
                                          : rng.Uniform();
    std::vector<uint64_t> indices;
    WalkList replacements;
    for (uint64_t j = 0; j < theta; ++j) {
      if (share == 1.0 || rng.Uniform() < share) {
        indices.push_back(j);
        replacements.push_back(random_walk(walks[j].front()));
      }
    }
    ExpectSpliceMatchesFinalize(n, walks, indices, replacements, opinions,
                                /*adopt=*/round % 2 == 1);
    if (HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// WalkSet::UndoTruncations: replaying the undo log backwards lands on the
// bytes a fresh ResetValues derives, so a pooled query view can skip the
// O(theta) reset after its first selection.
// ---------------------------------------------------------------------------

/// Every dynamic value a query reads.
struct DynamicBytes {
  std::vector<double> values;
  std::vector<uint32_t> eff_len;
  std::vector<double> estimates;
};

DynamicBytes ReadDynamic(const WalkSet& walks) {
  DynamicBytes bytes;
  for (uint32_t w = 0; w < walks.num_walks(); ++w) {
    bytes.values.push_back(walks.Value(w));
    bytes.eff_len.push_back(walks.EffectiveLen(w));
  }
  for (graph::NodeId v = 0; v < walks.num_nodes(); ++v) {
    bytes.estimates.push_back(walks.EstimatedOpinion(v));
  }
  return bytes;
}

::testing::AssertionResult SameDynamic(const WalkSet& walks,
                                       const DynamicBytes& want) {
  const DynamicBytes got = ReadDynamic(walks);
  if (!SameBytes<double>(got.values, want.values)) {
    return ::testing::AssertionFailure()
           << "values: " << SameBytes<double>(got.values, want.values)
                                .message();
  }
  if (!SameBytes<uint32_t>(got.eff_len, want.eff_len)) {
    return ::testing::AssertionFailure()
           << "effective lengths: "
           << SameBytes<uint32_t>(got.eff_len, want.eff_len).message();
  }
  if (!SameBytes<double>(got.estimates, want.estimates)) {
    return ::testing::AssertionFailure()
           << "estimates: "
           << SameBytes<double>(got.estimates, want.estimates).message();
  }
  return ::testing::AssertionSuccess();
}

TEST(WalkSetTest, UndoTruncationsRestoresResetBytes) {
  const auto no_op = [](uint32_t, double) {};
  Rng rng(2026);
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto n = static_cast<uint32_t>(4 + rng.UniformInt(12));
    const uint64_t theta = 1 + rng.UniformInt(64);
    // Walk 0 visits four distinct nodes: a cut at position 2 can be cut
    // again at 1 and then at its start.
    WalkList walks = {{0, 1, 2, 3}};
    for (uint64_t j = 1; j < theta; ++j) {
      std::vector<graph::NodeId> walk{
          static_cast<graph::NodeId>(rng.UniformInt(n))};
      const uint64_t extra = rng.UniformInt(8);
      for (uint64_t i = 0; i < extra; ++i) {
        walk.push_back(static_cast<graph::NodeId>(rng.UniformInt(n)));
      }
      walks.push_back(std::move(walk));
    }
    // A quarter of the nodes hold opinion 1: walks ending there start at
    // value 1.
    std::vector<double> opinions(n);
    for (double& b : opinions) b = rng.Uniform() < 0.25 ? 1.0 : rng.Uniform();
    std::shared_ptr<const WalkSet> owner = BuildWeighted(n, walks, opinions);

    const auto fresh = owner->ShareFrozen(owner);
    fresh->ResetValues(opinions);
    const DynamicBytes reset = ReadDynamic(*fresh);
    const size_t reset_bytes = fresh->memory_bytes();
    fresh->UndoTruncations();  // right after a reset: nothing to undo
    ASSERT_TRUE(SameDynamic(*fresh, reset)) << "undo after reset";

    // Walk 0 at position 2; random seeds; one of them again; walk 0 again
    // at position 1 and at its start.
    std::vector<graph::NodeId> seeds = {2};
    const uint64_t random_seeds = rng.UniformInt(8);
    for (uint64_t i = 0; i < random_seeds; ++i) {
      seeds.push_back(static_cast<graph::NodeId>(rng.UniformInt(n)));
    }
    seeds.push_back(seeds[rng.UniformInt(seeds.size())]);
    seeds.push_back(1);
    seeds.push_back(0);

    const auto view = owner->ShareFrozen(owner);
    view->ResetValues(opinions);
    for (int selection = 0; selection < 2; ++selection) {
      SCOPED_TRACE("selection " + std::to_string(selection));
      std::unique_ptr<WalkSet> copy;
      const uint64_t copy_at = rng.UniformInt(seeds.size() + 1);
      for (size_t i = 0; i < seeds.size(); ++i) {
        if (i == copy_at) copy = std::make_unique<WalkSet>(*view);
        view->Truncate(seeds[i], no_op);
      }
      if (copy == nullptr) copy = std::make_unique<WalkSet>(*view);
      EXPECT_GT(view->memory_bytes(), reset_bytes) << "the log is counted";
      // The copy carries the cuts made before it and cuts on alone.
      copy->Truncate(static_cast<graph::NodeId>(rng.UniformInt(n)), no_op);

      view->UndoTruncations();
      ASSERT_TRUE(SameDynamic(*view, reset)) << "undo";
      EXPECT_EQ(view->memory_bytes(), reset_bytes);
      copy->UndoTruncations();
      ASSERT_TRUE(SameDynamic(*copy, reset)) << "copy taken mid-sequence";
      view->UndoTruncations();  // twice in a row: nothing left to undo
      ASSERT_TRUE(SameDynamic(*view, reset)) << "second undo";
    }
  }
}

// ---------------------------------------------------------------------------
// Walk engine: unbiasedness (Thms. 8 and 9).
// ---------------------------------------------------------------------------

TEST(WalkEngineTest, WalkLengthBoundedByHorizon) {
  auto inst = MakeRandomInstance(30, 150, 2, 5);
  graph::AliasSampler alias(inst.graph);
  WalkEngine engine(inst.graph, inst.state.campaigns[0], alias);
  Rng rng(6);
  std::vector<graph::NodeId> walk;
  for (uint32_t t : {0u, 1u, 5u}) {
    for (int i = 0; i < 50; ++i) {
      engine.Generate(static_cast<graph::NodeId>(i % 30), t, &rng, &walk);
      EXPECT_GE(walk.size(), 1u);
      EXPECT_LE(walk.size(), t + 1);
    }
  }
}

TEST(WalkEngineTest, FullyStubbornStartNeverMoves) {
  auto inst = MakeRandomInstance(20, 100, 2, 7);
  inst.state.campaigns[0].stubbornness[4] = 1.0;
  graph::AliasSampler alias(inst.graph);
  WalkEngine engine(inst.graph, inst.state.campaigns[0], alias);
  Rng rng(8);
  std::vector<graph::NodeId> walk;
  for (int i = 0; i < 20; ++i) {
    engine.Generate(4, 10, &rng, &walk);
    EXPECT_EQ(walk, std::vector<graph::NodeId>{4});
  }
}

// Thm. 8/9 on the paper example, where exact opinions are known in closed
// form: the mean estimate over many walks must approach the exact opinion.
TEST(WalkEngineTest, EstimateIsUnbiasedOnPaperExample) {
  auto ex = MakePaperExample();
  opinion::FJModel model(ex.graph);
  graph::AliasSampler alias(ex.graph);
  WalkEngine engine(ex.graph, ex.state.campaigns[0], alias);
  Rng rng(9);
  const uint32_t t = 3;
  const auto exact = model.Propagate(ex.state.campaigns[0], t);
  std::vector<graph::NodeId> walk;
  for (graph::NodeId start = 0; start < 4; ++start) {
    RunningStat stat;
    for (int i = 0; i < 60000; ++i) {
      engine.Generate(start, t, &rng, &walk);
      stat.Add(ex.state.campaigns[0].initial_opinions[walk.back()]);
    }
    EXPECT_NEAR(stat.mean(), exact[start], 0.01) << "start " << start;
  }
}

TEST(WalkEngineTest, PostGenerationTruncationMatchesDirectGeneration) {
  // Thm. 9: E[Y[S]] = b[S] = E[X[S]] (Thm. 8). Compare both estimators
  // against the exact seeded opinion.
  auto inst = MakeRandomInstance(25, 140, 2, 11, /*max_stubbornness=*/0.6);
  opinion::FJModel model(inst.graph);
  graph::AliasSampler alias(inst.graph);
  WalkEngine engine(inst.graph, inst.state.campaigns[0], alias);
  const std::vector<graph::NodeId> seeds = {2, 7};
  std::vector<bool> is_seed(25, false);
  for (auto s : seeds) is_seed[s] = true;
  const uint32_t t = 4;
  const auto exact = model.PropagateWithSeeds(inst.state.campaigns[0], seeds, t);

  Rng rng(13);
  std::vector<graph::NodeId> walk;
  for (graph::NodeId start : {0u, 5u, 12u, 24u}) {
    RunningStat direct, truncated;
    for (int i = 0; i < 40000; ++i) {
      direct.Add(engine.GenerateWithSeeds(start, t, is_seed, &rng));
      engine.Generate(start, t, &rng, &walk);
      // Post-generation truncation at the first seed occurrence.
      double value = inst.state.campaigns[0].initial_opinions[walk.back()];
      for (graph::NodeId v : walk) {
        if (is_seed[v]) {
          value = 1.0;
          break;
        }
      }
      truncated.Add(value);
    }
    EXPECT_NEAR(direct.mean(), exact[start], 0.015) << "start " << start;
    EXPECT_NEAR(truncated.mean(), exact[start], 0.015) << "start " << start;
  }
}

// ---------------------------------------------------------------------------
// Per-walk RNG streams (GenerateSeeded): the walk definition both the
// in-memory sharded builder and the out-of-core block engine reproduce.
// These pins are load-bearing for determinism-ledger entry #7 — a change
// here silently breaks OOC == in-memory bit-identity.
// ---------------------------------------------------------------------------

TEST(WalkEngineTest, GenerateSeededMatchesManualPerWalkStreams) {
  auto inst = MakeRandomInstance(40, 200, 2, 3);
  graph::AliasSampler alias(inst.graph);
  WalkEngine engine(inst.graph, inst.state.campaigns[0], alias);
  const uint32_t horizon = 5;
  const uint64_t master_seed = 77;
  const uint64_t count = 500;

  WalkBuffer batch;
  engine.GenerateSeeded(0, count, horizon, master_seed, &batch);
  ASSERT_EQ(batch.lengths.size(), count);

  // Walk j must equal: draw start from SketchWalkRng(seed, j), then the
  // single-walk Generate() on the SAME stream.
  size_t cursor = 0;
  std::vector<graph::NodeId> walk;
  for (uint64_t j = 0; j < count; ++j) {
    Rng rng = SketchWalkRng(master_seed, j);
    const auto start =
        static_cast<graph::NodeId>(rng.UniformInt(inst.graph.num_nodes()));
    engine.Generate(start, horizon, &rng, &walk);
    ASSERT_EQ(batch.lengths[j], walk.size()) << "walk " << j;
    for (size_t i = 0; i < walk.size(); ++i) {
      ASSERT_EQ(batch.nodes[cursor + i], walk[i]) << "walk " << j;
    }
    cursor += walk.size();
  }
  EXPECT_EQ(cursor, batch.nodes.size());
}

TEST(WalkEngineTest, GenerateSeededIsBatchSplitInvariant) {
  // Splitting the walk range across calls (any scheduling) concatenates to
  // the same bytes: the property that lets sketch shards and OOC waves
  // carve up walks arbitrarily.
  auto inst = MakeRandomInstance(30, 160, 2, 13);
  graph::AliasSampler alias(inst.graph);
  WalkEngine engine(inst.graph, inst.state.campaigns[0], alias);
  const uint64_t master_seed = 4242;

  WalkBuffer whole;
  engine.GenerateSeeded(0, 300, 6, master_seed, &whole);

  WalkBuffer pieces;
  for (const auto& [first, n] :
       std::vector<std::pair<uint64_t, uint64_t>>{
           {0, 1}, {1, 99}, {100, 150}, {250, 50}}) {
    engine.GenerateSeeded(first, n, 6, master_seed, &pieces);
  }
  EXPECT_EQ(pieces.nodes, whole.nodes);
  EXPECT_EQ(pieces.lengths, whole.lengths);
}

TEST(WalkEngineTest, GenerateSeededPinnedTrajectories) {
  // Golden pin on the paper example: exact trajectories for a fixed
  // (master_seed, horizon). If this changes, every persisted sketch and
  // the OOC equivalence guarantee changed with it — do not re-pin without
  // bumping the sketch store's compatibility story.
  auto ex = MakePaperExample();
  graph::AliasSampler alias(ex.graph);
  WalkEngine engine(ex.graph, ex.state.campaigns[0], alias);
  WalkBuffer out;
  engine.GenerateSeeded(0, 6, 4, /*master_seed=*/1, &out);
  const std::vector<uint32_t> kGoldenLengths = {2, 2, 1, 1, 2, 1};
  const std::vector<graph::NodeId> kGoldenNodes = {3, 2, 2, 0, 3, 1, 2, 1, 3};
  EXPECT_EQ(out.lengths, kGoldenLengths);
  EXPECT_EQ(out.nodes, kGoldenNodes);
}

// ---------------------------------------------------------------------------
// Accuracy bounds (Thms. 10-12).
// ---------------------------------------------------------------------------

TEST(AccuracyTest, LambdaFormulasMatchPaper) {
  // Thm. 10 with delta = 0.1, rho = 0.9: ln(20)/(2*0.01) ~ 149.8 -> 150.
  EXPECT_EQ(LambdaForCumulative(0.1, 0.9), 150u);
  // Plurality (two-sided) needs more walks than Copeland (one-sided).
  EXPECT_GT(LambdaFromGamma(0.1, 0.9, false),
            LambdaFromGamma(0.1, 0.9, true));
  // Smaller margins need more walks.
  EXPECT_GT(LambdaFromGamma(0.05, 0.9, false),
            LambdaFromGamma(0.1, 0.9, false));
  // Higher confidence needs more walks.
  EXPECT_GT(LambdaForCumulative(0.1, 0.95), LambdaForCumulative(0.1, 0.75));
}

TEST(AccuracyTest, LogBinomial) {
  EXPECT_NEAR(LogBinomial(5, 2), std::log(10.0), 1e-9);
  EXPECT_NEAR(LogBinomial(10, 0), 0.0, 1e-9);
  EXPECT_EQ(LogBinomial(3, 5), -std::numeric_limits<double>::infinity());
}

TEST(AccuracyTest, GammaStarRespectsFloorAndShrinks) {
  auto inst = MakeRandomInstance(30, 150, 3, 17);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 4, voting::ScoreSpec::Plurality());
  GammaOptions options;
  options.gamma_floor = 0.05;
  const auto gamma = EstimateGammaStar(ev, 3, options);
  ASSERT_EQ(gamma.size(), 30u);
  for (uint32_t v = 0; v < 30; ++v) {
    EXPECT_GE(gamma[v], 0.05);
    EXPECT_LE(gamma[v], 1.0);
  }
}

TEST(AccuracyTest, LambdasFromGammaClamped) {
  const std::vector<double> gamma = {0.001, 0.5, 1.0};
  const auto lambdas = LambdasFromGammaStar(gamma, 0.9, false, 100);
  EXPECT_EQ(lambdas[0], 100u);  // capped
  EXPECT_GE(lambdas[1], 1u);
  EXPECT_LE(lambdas[2], 100u);
}

// ---------------------------------------------------------------------------
// Estimated greedy (Algorithm 4 loop).
// ---------------------------------------------------------------------------

TEST(EstimatedGreedyTest, PaperExampleCumulativePicksNodeZero) {
  auto ex = MakePaperExample();
  opinion::FJModel model(ex.graph);
  ScoreEvaluator ev(model, ex.state, 0, 1, voting::ScoreSpec::Cumulative());

  // Exact walks: enough per node that the estimates are sharp.
  graph::AliasSampler alias(ex.graph);
  WalkEngine engine(ex.graph, ex.state.campaigns[0], alias);
  Rng rng(19);
  WalkSet walks(4);
  std::vector<graph::NodeId> scratch;
  for (graph::NodeId v = 0; v < 4; ++v) {
    for (int j = 0; j < 4000; ++j) {
      engine.Generate(v, 1, &rng, &scratch);
      walks.AddWalk(scratch);
    }
  }
  walks.Finalize(ex.state.campaigns[0].initial_opinions);
  const auto result = EstimatedGreedySelect(ev, 1, &walks);
  EXPECT_EQ(result.seeds, std::vector<graph::NodeId>{0});
  EXPECT_NEAR(result.score, 3.30, 1e-9);  // exact score of chosen set
  EXPECT_NEAR(result.diagnostics.at("estimated_score"), 3.30, 0.05);
}

TEST(RWGreedyTest, CumulativeCloseToExactGreedy) {
  auto inst = MakeRandomInstance(60, 300, 2, 23, /*max_stubbornness=*/0.8);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 5, voting::ScoreSpec::Cumulative());
  const auto exact = GreedyDMSelect(ev, 4);
  RWOptions options;
  options.rho = 0.9;
  options.delta = 0.05;
  const auto rw = RWGreedySelect(ev, 4, options);
  EXPECT_EQ(rw.seeds.size(), 4u);
  // The RW greedy achieves at least 90% of exact greedy on this instance.
  EXPECT_GE(rw.score, 0.9 * exact.score);
  EXPECT_GT(rw.diagnostics.at("walks"), 0.0);
}

TEST(RWGreedyTest, PluralityAndCopelandProduceValidResults) {
  auto inst = MakeRandomInstance(40, 220, 3, 29, /*max_stubbornness=*/0.8);
  opinion::FJModel model(inst.graph);
  for (auto spec :
       {voting::ScoreSpec::Plurality(), voting::ScoreSpec::Copeland()}) {
    ScoreEvaluator ev(model, inst.state, 0, 4, spec);
    RWOptions options;
    options.lambda_cap = 64;  // keep the test fast
    const auto result = RWGreedySelect(ev, 3, options);
    EXPECT_EQ(result.seeds.size(), 3u);
    EXPECT_GE(result.score, ev.EvaluateSeeds({}));
  }
}

TEST(RWGreedyTest, LambdaOverrideControlsWalkCount) {
  auto inst = MakeRandomInstance(20, 100, 2, 31);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 3, voting::ScoreSpec::Cumulative());
  RWOptions options;
  options.lambda_override = 7;
  const auto result = RWGreedySelect(ev, 2, options);
  EXPECT_DOUBLE_EQ(result.diagnostics.at("walks"), 140.0);  // 20 * 7
  EXPECT_DOUBLE_EQ(result.diagnostics.at("lambda_mean"), 7.0);
}

TEST(EstimatedGreedyTest, MoreSeedsNeverLowerEstimatedCumulative) {
  auto inst = MakeRandomInstance(30, 160, 2, 37);
  opinion::FJModel model(inst.graph);
  ScoreEvaluator ev(model, inst.state, 0, 4, voting::ScoreSpec::Cumulative());
  RWOptions options;
  options.lambda_override = 32;
  double previous = -1.0;
  for (uint32_t k : {1u, 3u, 6u}) {
    RWOptions o = options;
    const auto result = RWGreedySelect(ev, k, o);
    EXPECT_GE(result.score, previous - 1e-9);
    previous = result.score;
  }
}

}  // namespace
}  // namespace voteopt::core
