// Crash consistency of the dynamic-graph journal (dyn/journal.h): the
// mutation log round-trips through the store container, writes via temp +
// rename (no torn files), rejects truncated / corrupted / wrong-base logs
// with a clean Status, and — the recovery contract — a process that dies
// after committing mutations is reconstructed bit-identically by the next
// DatasetRegistry::Load replaying the journal over the base bundle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "api/engine.h"
#include "core/sketch.h"
#include "datasets/io.h"
#include "datasets/synthetic.h"
#include "dyn/journal.h"
#include "dyn/mutation.h"
#include "graph/alias_table.h"
#include "opinion/fj_model.h"
#include "test_fixtures.h"
#include "voting/evaluator.h"

namespace voteopt::dyn {
namespace {

// Equal walk bytes and offsets, and equal values on query views reset
// from `opinions`.
void ExpectSameFrozenBytes(const core::WalkSet& a, const core::WalkSet& b,
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
  ASSERT_EQ(a.num_walks(), b.num_walks());
  const auto va = test::QueryView(a, opinions);
  const auto vb = test::QueryView(b, opinions);
  for (uint32_t w = 0; w < a.num_walks(); ++w) {
    ASSERT_EQ(va->Value(w), vb->Value(w)) << "value of walk " << w;
  }
}

const std::vector<double>& TargetOpinions(api::Engine& engine) {
  return engine.registry().Resolve("").value()->target_opinions();
}

std::vector<Mutation> SampleMutations() {
  return {Mutation::EdgeAdd(3, 9, 1.5), Mutation::EdgeDel(2, 7),
          Mutation::SetOpinion(1, 4, 0.625), Mutation::EdgeAdd(0, 1, 0.25)};
}

class DynJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/dyn_journal.dynlog";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void Truncate(size_t keep_bytes) {
    std::ifstream in(path_, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::vector<char> bytes(keep_bytes);
    in.read(bytes.data(), static_cast<std::streamsize>(keep_bytes));
    ASSERT_EQ(static_cast<size_t>(in.gcount()), keep_bytes);
    in.close();
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep_bytes));
  }

  void FlipByte(size_t offset) {
    std::fstream io(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(io.good());
    io.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    io.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    io.seekp(static_cast<std::streamoff>(offset));
    io.write(&byte, 1);
  }

  std::string path_;
};

TEST_F(DynJournalTest, RoundTripsAllMutationKinds) {
  const auto mutations = SampleMutations();
  ASSERT_TRUE(SaveMutationLog(path_, /*base_fingerprint=*/0xFEEDu, mutations)
                  .ok());
  auto journal = LoadMutationLog(path_);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(journal->base_fingerprint, 0xFEEDu);
  ASSERT_EQ(journal->mutations.size(), mutations.size());
  for (size_t i = 0; i < mutations.size(); ++i) {
    EXPECT_EQ(journal->mutations[i].kind, mutations[i].kind) << i;
    EXPECT_EQ(journal->mutations[i].u, mutations[i].u) << i;
    EXPECT_EQ(journal->mutations[i].v, mutations[i].v) << i;
    EXPECT_EQ(journal->mutations[i].value, mutations[i].value) << i;
  }
}

TEST_F(DynJournalTest, EmptyLogRoundTrips) {
  ASSERT_TRUE(SaveMutationLog(path_, 1, {}).ok());
  auto journal = LoadMutationLog(path_);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_TRUE(journal->mutations.empty());
}

TEST_F(DynJournalTest, SaveLeavesNoTempFilesBehind) {
  ASSERT_TRUE(SaveMutationLog(path_, 2, SampleMutations()).ok());
  // temp + rename: the directory must hold exactly the final artifact, no
  // ".tmp*" sibling a crashed writer could leave half-written.
  const std::filesystem::path dir =
      std::filesystem::path(path_).parent_path();
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string().find(path_ + ".tmp"), std::string::npos)
        << "leftover temp file: " << entry.path();
  }
}

TEST_F(DynJournalTest, OverwriteReplacesAtomically) {
  ASSERT_TRUE(SaveMutationLog(path_, 3, SampleMutations()).ok());
  const std::vector<Mutation> shorter = {Mutation::EdgeDel(5, 6)};
  ASSERT_TRUE(SaveMutationLog(path_, 3, shorter).ok());
  auto journal = LoadMutationLog(path_);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_EQ(journal->mutations.size(), 1u);
  EXPECT_EQ(journal->mutations[0].kind, Mutation::Kind::kEdgeDel);
}

TEST_F(DynJournalTest, TruncatedLogIsRejected) {
  ASSERT_TRUE(SaveMutationLog(path_, 4, SampleMutations()).ok());
  Truncate(40);
  auto journal = LoadMutationLog(path_);
  ASSERT_FALSE(journal.ok());
  EXPECT_TRUE(journal.status().code() == Status::Code::kCorruption ||
              journal.status().code() == Status::Code::kIOError)
      << journal.status().ToString();
}

TEST_F(DynJournalTest, CorruptedPayloadIsRejected) {
  ASSERT_TRUE(SaveMutationLog(path_, 5, SampleMutations()).ok());
  FlipByte(80);  // deep in the payload: the section checksum must catch it
  auto journal = LoadMutationLog(path_);
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), Status::Code::kCorruption)
      << journal.status().ToString();
}

TEST_F(DynJournalTest, MissingFileIsAnIOError) {
  auto journal = LoadMutationLog(path_);
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), Status::Code::kIOError)
      << journal.status().ToString();
}

// ---- crash recovery through the registry -------------------------------

class DynCrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A directory of its own, so a test can check everything left in it.
    dir_ = std::filesystem::path(::testing::TempDir()) / "dyn_crash";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    prefix_ = (dir_ / "bundle").string();
    dataset_ = datasets::MakeDataset(datasets::DatasetName::kTwitterMask,
                                     0.04, /*seed=*/11);
    ASSERT_TRUE(datasets::SaveDatasetBundle(dataset_, prefix_).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  api::EngineOptions Options() const {
    api::EngineOptions options;
    options.load.bundle_prefix = prefix_;
    options.load.build_theta = 6000;
    options.load.build_horizon = 8;
    options.load.save_built_sketch = true;
    options.load.build_threads = 2;
    return options;
  }

  std::filesystem::path dir_;
  std::string prefix_;
  datasets::Dataset dataset_;
};

TEST_F(DynCrashRecoveryTest, ReplayReconstructsThePreCrashInstance) {
  // Session 1: load, mutate twice (journal grows to 3 entries), "crash"
  // (drop the engine without unloading).
  std::vector<double> live_values;
  uint64_t live_fingerprint = 0;
  uint64_t live_content = 0;
  {
    auto engine = api::Engine::Open(Options());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    api::Response r1 =
        (*engine)->Execute(api::Request::EdgeAdd(0, 33, 2.0));
    ASSERT_TRUE(r1.ok) << r1.error;
    EXPECT_EQ(r1.applied, 1u);
    EXPECT_GT(r1.walks_total, 0u);
    std::vector<Mutation> batch = {
        Mutation::EdgeDel(0, 33),
        Mutation::SetOpinion(0, 12, 0.875)};
    api::Response r2 =
        (*engine)->Execute(api::Request::Mutate(std::move(batch)));
    ASSERT_TRUE(r2.ok) << r2.error;
    EXPECT_EQ(r2.applied, 2u);

    const auto view =
        test::QueryView((*engine)->walks(), TargetOpinions(**engine));
    live_values.reserve(view->num_walks());
    for (uint32_t w = 0; w < view->num_walks(); ++w) {
      live_values.push_back(view->Value(w));
    }
    live_fingerprint = (*engine)->sketch_meta().bundle_fingerprint;
    live_content = api::BundleFingerprint((*engine)->dataset());
    ASSERT_TRUE(std::filesystem::exists(prefix_ + kMutationLogSuffix));
  }

  // Session 2: a fresh process. Load finds the journal, replays it over
  // the persisted base sketch, and must serve the same instance.
  auto engine = api::Engine::Open(Options());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const core::WalkSet& walks = (*engine)->walks();
  const auto view = test::QueryView(walks, TargetOpinions(**engine));
  ASSERT_EQ(view->num_walks(), live_values.size());
  for (uint32_t w = 0; w < view->num_walks(); ++w) {
    ASSERT_EQ(view->Value(w), live_values[w]) << "walk " << w;
  }
  EXPECT_EQ((*engine)->sketch_meta().bundle_fingerprint, live_fingerprint);
  EXPECT_EQ(api::BundleFingerprint((*engine)->dataset()), live_content);
  // And the replayed instance equals a from-scratch build of the mutated
  // graph — ledger entry #10 end to end.
  const auto& dataset = (*engine)->dataset();
  opinion::FJModel model(dataset.influence);
  voting::ScoreEvaluator ev(model, dataset.state,
                            (*engine)->sketch_meta().target,
                            (*engine)->sketch_meta().horizon,
                            voting::ScoreSpec::Cumulative());
  core::SketchBuildOptions build;
  build.num_threads = 2;
  const auto rebuilt = core::BuildSketchSet(
      ev, (*engine)->sketch_meta().theta,
      (*engine)->sketch_meta().master_seed, build);
  ExpectSameFrozenBytes(*rebuilt, walks, TargetOpinions(**engine));
}

TEST_F(DynCrashRecoveryTest, FingerprintFoldsTheJournal) {
  // A mutated instance's fingerprint names its lineage: the base bundle's
  // content hash folded with every journal record, not a hash of its
  // bytes. Node v has at most one in-edge, so adding u -> v and deleting
  // it again restores every byte (a one-entry row renormalizes to 1.0).
  auto base_bundle = datasets::LoadDatasetBundle(prefix_);
  ASSERT_TRUE(base_bundle.ok()) << base_bundle.status().ToString();
  const uint64_t base = api::BundleFingerprint(*base_bundle);
  const graph::Graph& g = base_bundle->influence;
  graph::NodeId v = 0;
  while (g.InDegree(v) > 1) ++v;
  const auto in = g.InNeighbors(v);
  graph::NodeId u = 0;
  while (u == v || std::find(in.begin(), in.end(), u) != in.end()) ++u;

  auto engine = api::Engine::Open(Options());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_EQ((*engine)->sketch_meta().bundle_fingerprint, base);
  ASSERT_TRUE((*engine)->Execute(api::Request::EdgeAdd(u, v, 2.0)).ok);
  ASSERT_TRUE((*engine)->Execute(api::Request::EdgeDel(u, v)).ok);
  ASSERT_EQ(api::BundleFingerprint((*engine)->dataset()), base)
      << "the add/del pair must restore the base bytes";
  EXPECT_NE((*engine)->sketch_meta().bundle_fingerprint, base);

  const api::Response third = (*engine)->Execute(api::Request::Mutate(
      {Mutation::SetOpinion(0, 12, 0.875), Mutation::EdgeAdd(u, v, 0.5)}));
  ASSERT_TRUE(third.ok) << third.error;

  auto journal = LoadMutationLog(prefix_ + kMutationLogSuffix);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_EQ(journal->base_fingerprint, base);
  ASSERT_EQ(journal->mutations.size(), 4u);
  const std::span<const Mutation> records(journal->mutations);
  const uint64_t folded = FoldMutations(base, records);
  EXPECT_EQ((*engine)->sketch_meta().bundle_fingerprint, folded);
  EXPECT_EQ(FoldMutations(FoldMutations(base, records.first(1)),
                          records.subspan(1)),
            folded);
}

TEST_F(DynCrashRecoveryTest, OpinionOnlyCommitThenEdgeCommitStaysExact) {
  // Regression: an opinion-only commit publishes a successor entry that
  // reuses the predecessor's alias tables. The tables must be rebound to
  // the successor's own graph storage — the predecessor entry (and the
  // graph the shared sampler pointed into) is freed at the registry swap,
  // and the NEXT edge commit's row-level alias rebuild copies clean rows
  // through the base sampler. Before the rebind this schedule read freed
  // memory and commit 4 silently diverged from a from-scratch build.
  auto engine = api::Engine::Open(Options());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const std::vector<api::Request> schedule = {
      api::Request::EdgeAdd(1, 2, 1.5),
      api::Request::EdgeDel(1, 2),
      api::Request::SetOpinion(0, 3, 0.25),  // opinion-only: alias is shared
      api::Request::Mutate({Mutation::EdgeAdd(4, 5, 1.0),
                            Mutation::SetOpinion(0, 6, 0.75)}),
  };
  for (size_t step = 0; step < schedule.size(); ++step) {
    api::Response response = (*engine)->Execute(schedule[step]);
    ASSERT_TRUE(response.ok) << "commit " << step << ": " << response.error;

    // The published alias tables must equal a fresh full Vose build over
    // the current graph, row by row.
    auto entry = (*engine)->registry().Resolve("");
    ASSERT_TRUE(entry.ok());
    const graph::Graph& current = (*entry)->dataset.influence;
    ASSERT_NE((*entry)->alias, nullptr) << "commit " << step;
    const graph::AliasSampler fresh(current);
    for (graph::NodeId v = 0; v < current.num_nodes(); ++v) {
      const size_t deg = current.InNeighbors(v).size();
      for (size_t slot = 0; slot < deg; ++slot) {
        ASSERT_EQ((*entry)->alias->Probability(v, slot),
                  fresh.Probability(v, slot))
            << "commit " << step << " row " << v << " slot " << slot;
      }
    }

    // And the hosted sketch must stay bit-identical to a from-scratch
    // build over the mutated instance (ledger entry #10), with equal values
    // on query views reset from the current opinions after every commit,
    // opinion-only ones included.
    const auto& dataset = (*engine)->dataset();
    const auto& meta = (*engine)->sketch_meta();
    opinion::FJModel model(dataset.influence);
    voting::ScoreEvaluator ev(model, dataset.state, meta.target, meta.horizon,
                              voting::ScoreSpec::Cumulative());
    core::SketchBuildOptions build;
    build.num_threads = 2;
    const auto rebuilt =
        core::BuildSketchSet(ev, meta.theta, meta.master_seed, build);
    const auto& fa = rebuilt->frozen();
    const auto& fb = (*engine)->walks().frozen();
    ASSERT_EQ(fa.nodes.size(), fb.nodes.size()) << "commit " << step;
    for (size_t i = 0; i < fa.nodes.size(); ++i) {
      ASSERT_EQ(fa.nodes[i], fb.nodes[i])
          << "commit " << step << " node slab byte " << i;
    }
    ASSERT_EQ(fa.offsets.size(), fb.offsets.size()) << "commit " << step;
    for (size_t i = 0; i < fa.offsets.size(); ++i) {
      ASSERT_EQ(fa.offsets[i], fb.offsets[i])
          << "commit " << step << " offset " << i;
    }
    ExpectSameFrozenBytes(*rebuilt, (*engine)->walks(),
                          TargetOpinions(**engine));
  }
}

TEST_F(DynCrashRecoveryTest, BudgetedReplayRepairsOutOfCore) {
  // Regression: Load's journal replay ignored block_budget_bytes, so a
  // server configured out of core repaired in memory on every restart and
  // kept whole-graph alias tables afterwards. Replay must repair the way a
  // live commit does — through the block scheduler, leaving no alias
  // tables — and answer exactly like an in-memory replay, before and after
  // one more live commit. Out-of-core builds and repairs write no files:
  // the scratch prefix below names a directory that does not exist.
  const graph::Graph& g = dataset_.influence;
  const uint32_t n = g.num_nodes();
  std::vector<Mutation> edits;
  for (uint32_t u = 0; u < n && edits.size() < 40; ++u) {
    const uint32_t v = (u * 37 + 11) % n;
    const auto out = g.OutNeighbors(u);
    if (u == v || std::find(out.begin(), out.end(), v) != out.end()) continue;
    edits.push_back(Mutation::EdgeAdd(u, v, 1.0 + 0.125 * (u % 5)));
  }
  ASSERT_EQ(edits.size(), 40u);
  {
    auto engine = api::Engine::Open(Options());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (size_t i = 0; i < edits.size(); i += 10) {
      api::Response r = (*engine)->Execute(api::Request::Mutate(
          std::vector<Mutation>(edits.begin() + i, edits.begin() + i + 10)));
      ASSERT_TRUE(r.ok) << r.error;
    }
  }

  api::EngineOptions budgeted = Options();
  budgeted.load.block_budget_bytes = 4096;
  budgeted.load.ooc_scratch_prefix = (dir_ / "absent" / "scratch").string();
  auto ooc = api::Engine::Open(budgeted);
  ASSERT_TRUE(ooc.ok()) << ooc.status().ToString();
  auto mem = api::Engine::Open(Options());
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();

  auto ooc_entry = (*ooc)->registry().Resolve("");
  ASSERT_TRUE(ooc_entry.ok());
  EXPECT_EQ((*ooc_entry)->alias, nullptr)
      << "a budgeted replay must not build whole-graph alias tables";
  auto mem_entry = (*mem)->registry().Resolve("");
  ASSERT_TRUE(mem_entry.ok());
  EXPECT_NE((*mem_entry)->alias, nullptr);

  ExpectSameFrozenBytes((*mem)->walks(), (*ooc)->walks(),
                        TargetOpinions(**mem));
  const std::vector<api::Request> probes = {
      api::Request::TopK(5, voting::ScoreSpec::Cumulative()),
      api::Request::TopK(4, voting::ScoreSpec::Plurality()),
      api::Request::TopK(3, voting::ScoreSpec::Copeland()),
      api::Request::Evaluate({1, 2, 3}, voting::ScoreSpec::Cumulative()),
  };
  for (const api::Request& probe : probes) {
    const api::Response a = (*mem)->Execute(probe);
    const api::Response b = (*ooc)->Execute(probe);
    ASSERT_TRUE(a.ok) << a.error;
    EXPECT_EQ(a.ToStableJson(), b.ToStableJson());
  }

  // One live commit on each: the budgeted engine repairs out of core.
  const api::Request commit = api::Request::EdgeAdd(0, 33, 2.0);
  const api::Response a = (*mem)->Execute(commit);
  const api::Response b = (*ooc)->Execute(commit);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_GT(a.walks_repaired, 0u);
  EXPECT_EQ(a.ToStableJson(), b.ToStableJson());
  ExpectSameFrozenBytes((*mem)->walks(), (*ooc)->walks(),
                        TargetOpinions(**mem));

  // The bundle directory holds the bundle members and the journal only.
  std::vector<std::string> expected;
  for (const char* suffix : {".campaigns.tsv", ".counts.edges",
                             ".influence.edges", ".meta", ".sketch",
                             kMutationLogSuffix}) {
    expected.push_back(std::string("bundle") + suffix);
  }
  std::vector<std::string> found;
  for (const auto& file : std::filesystem::directory_iterator(dir_)) {
    found.push_back(file.path().filename().string());
  }
  std::sort(expected.begin(), expected.end());
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found, expected);
}

TEST_F(DynCrashRecoveryTest, WrongBaseJournalIsRejected) {
  // A journal recorded against a DIFFERENT base bundle must fail the load,
  // not silently replay onto the wrong graph.
  const std::vector<Mutation> foreign = {Mutation::EdgeAdd(0, 1, 1.0)};
  ASSERT_TRUE(SaveMutationLog(prefix_ + kMutationLogSuffix,
                              /*base_fingerprint=*/0xDEADBEEFu, foreign)
                  .ok());
  auto engine = api::Engine::Open(Options());
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), Status::Code::kFailedPrecondition)
      << engine.status().ToString();
}

TEST_F(DynCrashRecoveryTest, CorruptJournalFailsTheLoadCleanly) {
  const std::vector<Mutation> one = {Mutation::EdgeAdd(0, 1, 1.0)};
  ASSERT_TRUE(SaveMutationLog(prefix_ + kMutationLogSuffix, 1, one).ok());
  std::fstream io(prefix_ + kMutationLogSuffix,
                  std::ios::binary | std::ios::in | std::ios::out);
  io.seekp(60);
  char byte = 0x5A;
  io.write(&byte, 1);
  io.close();
  auto engine = api::Engine::Open(Options());
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), Status::Code::kCorruption)
      << engine.status().ToString();
}

TEST_F(DynCrashRecoveryTest, InvalidReplayMutationFailsTheLoad) {
  // A journal that no longer applies (node out of range) must fail clean.
  ASSERT_TRUE(datasets::SaveDatasetBundle(dataset_, prefix_).ok());
  auto bundle = datasets::LoadDatasetBundle(prefix_);
  ASSERT_TRUE(bundle.ok());
  datasets::Dataset loaded = std::move(bundle).value();
  const std::vector<Mutation> bad = {Mutation::EdgeAdd(0, 4000000000u, 1.0)};
  ASSERT_TRUE(SaveMutationLog(prefix_ + kMutationLogSuffix,
                              api::BundleFingerprint(loaded), bad)
                  .ok());
  auto engine = api::Engine::Open(Options());
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), Status::Code::kInvalidArgument)
      << engine.status().ToString();
}

}  // namespace
}  // namespace voteopt::dyn
