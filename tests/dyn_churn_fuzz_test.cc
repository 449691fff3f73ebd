// Churn fuzz: seeded random interleavings of streaming mutations
// (edge_add / edge_del / set_opinion / batched mutate) and queries over a
// LIVE socket, extending the serve_net_fuzz_test harness to the dynamic
// layer. The oracle is serial replay: a reference engine executes the
// exact same request sequence inline, single-threaded, and every socket
// answer must be byte-identical (ToStableJson) — determinism ledger
// entry #10 carried all the way through the TCP front end. The second
// test hammers queries from a concurrent connection while mutations
// stream, so the commit path (repair → Replace → Evict) races real
// readers; it runs in the TSan CI suite.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "datasets/io.h"
#include "datasets/synthetic.h"
#include "dyn/journal.h"
#include "dyn/mutation.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/protocol.h"
#include "util/rng.h"

namespace voteopt::net {
namespace {

using api::Request;
using dyn::Mutation;

// A directed edge u -> v that is NOT in the graph, found deterministically
// (same walk as tests/dyn_equivalence_test.cc).
Mutation AbsentEdgeAdd(const graph::Graph& graph, uint64_t salt,
                       double weight) {
  const uint32_t n = graph.num_nodes();
  for (uint64_t step = 0; step < 4096; ++step) {
    const uint32_t u = static_cast<uint32_t>((salt + step * 7) % n);
    const uint32_t v = static_cast<uint32_t>((salt * 3 + step * 11 + 1) % n);
    if (u == v) continue;
    auto in = graph.InNeighbors(v);
    bool present = false;
    for (const uint32_t s : in) {
      if (s == u) {
        present = true;
        break;
      }
    }
    if (!present) return Mutation::EdgeAdd(u, v, weight);
  }
  ADD_FAILURE() << "no absent edge found";
  return Mutation::EdgeAdd(0, 1, weight);
}

// An existing edge u -> v whose target row keeps at least one in-edge
// after deletion, or nullopt-like sentinel when the roll finds none.
bool PresentEdgeDel(const graph::Graph& graph, Rng* rng, Mutation* out) {
  const uint32_t n = graph.num_nodes();
  for (int attempt = 0; attempt < 64; ++attempt) {
    const uint32_t v = static_cast<uint32_t>(rng->UniformInt(n));
    auto in = graph.InNeighbors(v);
    if (in.size() < 2) continue;
    const uint32_t u = in[rng->UniformInt(in.size())];
    *out = Mutation::EdgeDel(u, v);
    return true;
  }
  return false;
}

class DynChurnFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto dataset =
        datasets::MakeDataset(datasets::DatasetName::kTwitterMask,
                              /*scale=*/0.04, /*seed=*/21);
    num_nodes_ = dataset.influence.num_nodes();
    num_candidates_ = dataset.state.num_candidates();
    prefix_ = ::testing::TempDir() + "/dyn_churn_srv";
    ref_prefix_ = ::testing::TempDir() + "/dyn_churn_ref";
    ASSERT_TRUE(datasets::SaveDatasetBundle(dataset, prefix_).ok());
    ASSERT_TRUE(datasets::SaveDatasetBundle(dataset, ref_prefix_).ok());

    // Served engine: multi-threaded workers and build/repair threads. The
    // reference engine replays serially, single-threaded, on its own copy
    // of the SAME bundle bytes — identical sketch by the build ledger,
    // then identical repairs by ledger entry #10, whatever the threads.
    engine_ = OpenEngine(prefix_, /*build_threads=*/3, /*workers=*/2);
    ref_engine_ = OpenEngine(ref_prefix_, /*build_threads=*/1, /*workers=*/1);

    ServerOptions server_options;
    server_options.batch.metrics = &engine_->metrics();
    server_ = std::make_unique<Server>(engine_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    server_.reset();
    engine_.reset();
    ref_engine_.reset();
    for (const std::string& prefix : {prefix_, ref_prefix_}) {
      for (const char* suffix :
           {".influence.edges", ".counts.edges", ".campaigns.tsv", ".meta",
            ".sketch", dyn::kMutationLogSuffix}) {
        std::remove((prefix + suffix).c_str());
      }
    }
  }

  std::unique_ptr<api::Engine> OpenEngine(const std::string& prefix,
                                          uint32_t build_threads,
                                          uint32_t workers) {
    api::EngineOptions options;
    options.load.bundle_prefix = prefix;
    options.load.build_theta = 6000;
    options.load.build_horizon = 8;
    options.load.save_built_sketch = true;
    options.load.build_threads = build_threads;
    options.num_worker_threads = workers;
    auto engine = api::Engine::Open(options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return engine.ok() ? std::move(*engine) : nullptr;
  }

  // One random request. Mutations are derived from the REFERENCE engine's
  // current graph (the serial-replay truth), so every generated edit is
  // valid at its point in the sequence on both sides.
  Request NextRequest(Rng* rng) {
    const graph::Graph& graph = ref_engine_->dataset().influence;
    const uint64_t kind = rng->UniformInt(10);
    if (kind < 3) {
      return Request::TopK(3, voting::ScoreSpec{});
    }
    if (kind < 5) {
      Request request = Request::TopK(2, voting::ScoreSpec{});
      request.rule = "plurality";
      return request;
    }
    if (kind < 6) {
      return Request::Evaluate({1, 2}, voting::ScoreSpec{});
    }
    if (kind < 7) {
      const Mutation add =
          AbsentEdgeAdd(graph, rng->Next(), 0.5 + rng->UniformInt(4) * 0.5);
      return Request::EdgeAdd(add.u, add.v, add.value);
    }
    if (kind < 8) {
      Mutation del = Mutation::EdgeDel(0, 0);
      if (PresentEdgeDel(graph, rng, &del)) {
        return Request::EdgeDel(del.u, del.v);
      }
      return Request::TopK(3, voting::ScoreSpec{});  // degenerate graph
    }
    if (kind < 9) {
      return Request::SetOpinion(
          static_cast<uint32_t>(rng->UniformInt(num_candidates_)),
          static_cast<uint32_t>(rng->UniformInt(num_nodes_)),
          static_cast<double>(rng->UniformInt(1000)) / 1000.0);
    }
    // Batched mutate: one structural edit plus one opinion edit, applied
    // atomically in one commit.
    std::vector<Mutation> batch;
    batch.push_back(AbsentEdgeAdd(graph, rng->Next(), 1.0));
    batch.push_back(Mutation::SetOpinion(
        static_cast<uint32_t>(rng->UniformInt(num_candidates_)),
        static_cast<uint32_t>(rng->UniformInt(num_nodes_)),
        static_cast<double>(rng->UniformInt(1000)) / 1000.0));
    return Request::Mutate(std::move(batch));
  }

  std::string prefix_, ref_prefix_;
  uint32_t num_nodes_ = 0;
  uint32_t num_candidates_ = 0;
  std::unique_ptr<api::Engine> engine_;
  std::unique_ptr<api::Engine> ref_engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(DynChurnFuzzTest, InterleavedChurnMatchesSerialReplayByteForByte) {
  Rng rng(20230842);
  int mutations_sent = 0, queries_sent = 0;
  for (int round = 0; round < 4; ++round) {
    // Generate this round's script and its serial-replay answers. The
    // reference engine advances as we generate, so edit validity and
    // expected answers always reflect the sequence position.
    std::vector<std::string> wire_lines, expected;
    const int num_items = 10 + static_cast<int>(rng.UniformInt(4));
    for (int i = 0; i < num_items; ++i) {
      Request request = NextRequest(&rng);
      (request.mutations.empty() ? queries_sent : mutations_sent)++;
      wire_lines.push_back(serve::RequestToJson(request));
      api::Response reference = ref_engine_->Execute(request);
      ASSERT_TRUE(reference.ok)
          << "round " << round << " item " << i << ": " << reference.error;
      expected.push_back(reference.ToStableJson());
    }

    // Pipeline the whole script down one connection. Mutation verbs are
    // admin ops — ordering barriers in the batcher — so the served engine
    // executes the same serial sequence, just with concurrent workers for
    // the query stretches between commits.
    BlockingClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    for (const std::string& line : wire_lines) {
      ASSERT_TRUE(client.SendLine(line).ok());
    }
    client.ShutdownWrite();
    for (size_t i = 0; i < expected.size(); ++i) {
      std::string answer;
      ASSERT_TRUE(client.ReadLine(&answer).ok())
          << "round " << round << " answer " << i << " missing";
      auto parsed = serve::ParseResponse(answer);
      ASSERT_TRUE(parsed.ok()) << answer;
      EXPECT_EQ(parsed->ToStableJson(), expected[i])
          << "round " << round << " answer " << i << " for "
          << wire_lines[i];
    }
    std::string extra;
    EXPECT_FALSE(client.ReadLine(&extra).ok()) << "stray line: " << extra;
  }
  // The generator must actually churn, not just query.
  EXPECT_GT(mutations_sent, 8);
  EXPECT_GT(queries_sent, 15);

  // Both engines walked the same mutation schedule: the same lineage (the
  // base fingerprint folded with every committed batch) and the same
  // graph and opinion bytes.
  EXPECT_EQ(engine_->sketch_meta().bundle_fingerprint,
            ref_engine_->sketch_meta().bundle_fingerprint);
  EXPECT_EQ(api::BundleFingerprint(engine_->dataset()),
            api::BundleFingerprint(ref_engine_->dataset()));
}

TEST_F(DynChurnFuzzTest, QueriesRacingCommitsStayCleanAndConverge) {
  // A hammer connection streams queries while the main thread commits
  // mutations on another connection. Racing answers may come from the
  // pre- or post-commit instance — but every one must parse, carry no
  // error, and once the churn stops the served answer must equal the
  // serial-replay answer exactly.
  std::atomic<bool> done{false};
  std::atomic<int> hammered{0};
  std::thread hammer([&] {
    BlockingClient client;
    if (!client.Connect("127.0.0.1", server_->port()).ok()) return;
    const std::string line =
        serve::RequestToJson(Request::TopK(3, voting::ScoreSpec{}));
    while (!done.load(std::memory_order_relaxed)) {
      if (!client.SendLine(line).ok()) return;
      std::string answer;
      if (!client.ReadLine(&answer).ok()) return;
      auto parsed = serve::ParseResponse(answer);
      ASSERT_TRUE(parsed.ok()) << answer;
      ASSERT_TRUE(parsed->ok) << answer;
      hammered.fetch_add(1, std::memory_order_relaxed);
    }
  });

  Rng rng(4242);
  BlockingClient mutator;
  ASSERT_TRUE(mutator.Connect("127.0.0.1", server_->port()).ok());
  for (int i = 0; i < 8; ++i) {
    const graph::Graph& graph = ref_engine_->dataset().influence;
    Request request;
    if (i % 2 == 0) {
      const Mutation add = AbsentEdgeAdd(graph, rng.Next(), 1.0);
      request = Request::EdgeAdd(add.u, add.v, add.value);
    } else {
      Mutation del = Mutation::EdgeDel(0, 0);
      ASSERT_TRUE(PresentEdgeDel(graph, &rng, &del));
      request = Request::EdgeDel(del.u, del.v);
    }
    api::Response reference = ref_engine_->Execute(request);
    ASSERT_TRUE(reference.ok) << reference.error;
    ASSERT_TRUE(mutator.SendLine(serve::RequestToJson(request)).ok());
    std::string answer;
    ASSERT_TRUE(mutator.ReadLine(&answer).ok());
    auto parsed = serve::ParseResponse(answer);
    ASSERT_TRUE(parsed.ok()) << answer;
    EXPECT_EQ(parsed->ToStableJson(), reference.ToStableJson());
  }
  done.store(true, std::memory_order_relaxed);
  hammer.join();
  EXPECT_GT(hammered.load(), 0);

  // Post-churn convergence: the racing reads are over, the instances must
  // be identical, and a fresh served answer must match serial replay.
  const Request canary = Request::TopK(3, voting::ScoreSpec{});
  const std::string expected = ref_engine_->Execute(canary).ToStableJson();
  ASSERT_TRUE(mutator.SendLine(serve::RequestToJson(canary)).ok());
  std::string answer;
  ASSERT_TRUE(mutator.ReadLine(&answer).ok());
  auto parsed = serve::ParseResponse(answer);
  ASSERT_TRUE(parsed.ok()) << answer;
  EXPECT_EQ(parsed->ToStableJson(), expected);
  EXPECT_EQ(engine_->sketch_meta().bundle_fingerprint,
            ref_engine_->sketch_meta().bundle_fingerprint);
  EXPECT_EQ(api::BundleFingerprint(engine_->dataset()),
            api::BundleFingerprint(ref_engine_->dataset()));
}

}  // namespace
}  // namespace voteopt::net
