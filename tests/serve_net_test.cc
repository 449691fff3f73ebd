// Correctness coverage for the epoll TCP front end (net/server.h): the
// socket transport must deliver answers BYTE-IDENTICAL to the in-process
// api::Engine / stdin path (determinism ledger entry 9), whatever the
// framing — lines split at every byte boundary, whole batches pipelined in
// one write, many concurrent clients, any worker-thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "net/batcher.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/protocol.h"

namespace voteopt::net {
namespace {

using api::Request;
using api::Response;

class ServeNetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = ::testing::TempDir() + "/serve_net";
    ASSERT_TRUE(datasets::SaveDatasetBundle(
                    datasets::MakeDataset(datasets::DatasetName::kTwitterMask,
                                          0.05, /*seed=*/7),
                    prefix_)
                    .ok());
    // Build and persist the sketch once so every engine in a test LOADS
    // it: `list` reports sketch_built, which must not differ between the
    // socket engine and the reference engine.
    auto warm = api::Engine::Open(EngineOptionsFor(1));
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  }
  void TearDown() override {
    for (const char* suffix : {".influence.edges", ".counts.edges",
                               ".campaigns.tsv", ".meta", ".sketch"}) {
      std::remove((prefix_ + suffix).c_str());
    }
  }

  api::EngineOptions EngineOptionsFor(uint32_t worker_threads) const {
    api::EngineOptions options;
    options.load.bundle_prefix = prefix_;
    options.load.build_theta = 10000;
    options.load.build_horizon = 8;
    options.load.save_built_sketch = true;
    options.load.build_threads = 2;
    options.num_worker_threads = worker_threads;
    return options;
  }

  /// Every query verb, several rules, one invalid request, one admin verb
  /// mixed in — all with ids so responses can be matched back.
  static std::vector<Request> MixedBatch() {
    std::vector<Request> batch;
    auto add = [&batch](Request::Op op) -> Request& {
      Request request;
      request.op = op;
      request.id = "q" + std::to_string(batch.size());
      batch.push_back(request);
      return batch.back();
    };
    add(Request::Op::kTopK).k = 5;
    {
      Request& r = add(Request::Op::kTopK);
      r.k = 4;
      r.rule = "plurality";
    }
    add(Request::Op::kMinSeed).k_max = 24;
    add(Request::Op::kEvaluate).seeds = {1, 2, 3};
    {
      Request& r = add(Request::Op::kEvaluate);
      r.seeds = {4, 5};
      r.overrides = {{0, 1.0}, {1, 0.25}};
      r.rule = "borda";
    }
    {
      Request& r = add(Request::Op::kMethodCompare);
      r.v = 2;
      r.k = 4;
    }
    {
      Request& r = add(Request::Op::kRuleSweep);
      r.v = 2;
      r.k = 4;
    }
    add(Request::Op::kList);
    {
      Request& r = add(Request::Op::kTopK);
      r.k = 0;  // invalid on purpose: errors must be byte-identical too
    }
    return batch;
  }

  static std::string Stable(const std::string& response_line) {
    auto response = serve::ParseResponse(response_line);
    EXPECT_TRUE(response.ok()) << response_line;
    return response.ok() ? response->ToStableJson() : "<unparseable>";
  }

  std::string prefix_;
};

TEST_F(ServeNetTest, SplitAtEveryByteBoundaryAnswersMatchService) {
  auto engine = api::Engine::Open(EngineOptionsFor(2));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ServerOptions options;
  options.batch.metrics = &(*engine)->metrics();
  Server server(engine->get(), options);
  ASSERT_TRUE(server.Start().ok());

  Request request;
  request.op = Request::Op::kTopK;
  request.k = 5;
  request.rule = "plurality";
  const std::string line = serve::RequestToJson(request) + "\n";
  const std::string expected = (*engine)->Execute(request).ToStableJson();

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // One round per interior split point: the framer must reassemble the
  // line identically no matter where the TCP segmentation cut it.
  for (size_t split = 1; split < line.size(); ++split) {
    ASSERT_TRUE(client.SendBytes(line.substr(0, split)).ok());
    ASSERT_TRUE(client.SendBytes(line.substr(split)).ok());
    std::string answer;
    ASSERT_TRUE(client.ReadLine(&answer).ok()) << "split at " << split;
    EXPECT_EQ(Stable(answer), expected) << "split at " << split;
  }
}

TEST_F(ServeNetTest, PipelinedBatchAnswersInOrderAndByteIdentical) {
  auto engine = api::Engine::Open(EngineOptionsFor(2));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ServerOptions options;
  options.batch.metrics = &(*engine)->metrics();
  Server server(engine->get(), options);
  ASSERT_TRUE(server.Start().ok());

  // Reference answers from an in-process engine.
  auto reference = api::Engine::Open(EngineOptionsFor(1));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::vector<Request> batch = MixedBatch();
  std::vector<std::string> expected;
  for (const Request& request : batch) {
    expected.push_back((*reference)->Execute(request).ToStableJson());
  }

  // The whole batch in ONE write, interleaved with blank and comment
  // lines (skipped, exactly like the stdin path).
  std::string wire = "\n# pipelined batch\n";
  for (const Request& request : batch) {
    wire += serve::RequestToJson(request) + "\n";
  }
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.SendBytes(wire).ok());
  client.ShutdownWrite();  // half-close: the tail must still arrive
  for (size_t i = 0; i < batch.size(); ++i) {
    std::string answer;
    ASSERT_TRUE(client.ReadLine(&answer).ok()) << "response " << i;
    auto parsed = serve::ParseResponse(answer);
    ASSERT_TRUE(parsed.ok()) << answer;
    // In request order: the echoed id proves no reordering.
    EXPECT_EQ(parsed->id, batch[i].id);
    EXPECT_EQ(parsed->ToStableJson(), expected[i]) << "request " << i;
  }
  // After the tail, the server closes the half-closed connection.
  std::string extra;
  EXPECT_FALSE(client.ReadLine(&extra, 5000).ok());
}

TEST_F(ServeNetTest, AnswersInvariantAcrossWorkerThreadCounts) {
  // The full mixed batch through a socket against engines with 1, 2, and
  // 4 workers: every stable answer must be identical (the thread-count
  // invariance contract extends to the TCP path).
  const std::vector<Request> batch = MixedBatch();
  std::vector<std::vector<std::string>> answers_by_threads;
  for (const uint32_t threads : {1u, 2u, 4u}) {
    auto engine = api::Engine::Open(EngineOptionsFor(threads));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ServerOptions options;
    Server server(engine->get(), options);
    ASSERT_TRUE(server.Start().ok());
    BlockingClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    std::vector<std::string> answers;
    for (const Request& request : batch) {
      ASSERT_TRUE(client.SendLine(serve::RequestToJson(request)).ok());
      std::string answer;
      ASSERT_TRUE(client.ReadLine(&answer).ok());
      answers.push_back(Stable(answer));
    }
    answers_by_threads.push_back(std::move(answers));
  }
  for (size_t t = 1; t < answers_by_threads.size(); ++t) {
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(answers_by_threads[0][i], answers_by_threads[t][i])
          << "request " << i << " diverged at thread-count index " << t;
    }
  }
}

TEST_F(ServeNetTest, ConcurrentClientsEachGetServiceIdenticalAnswers) {
  auto engine = api::Engine::Open(EngineOptionsFor(4));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ServerOptions options;
  options.batch.metrics = &(*engine)->metrics();
  options.batch.num_executors = 3;
  Server server(engine->get(), options);
  ASSERT_TRUE(server.Start().ok());

  auto reference = api::Engine::Open(EngineOptionsFor(1));
  ASSERT_TRUE(reference.ok());
  const std::vector<Request> batch = MixedBatch();
  std::vector<std::string> expected;
  for (const Request& request : batch) {
    expected.push_back((*reference)->Execute(request).ToStableJson());
  }

  constexpr size_t kClients = 4;
  constexpr size_t kRounds = 3;
  std::vector<std::string> failures(kClients);
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        BlockingClient client;
        if (!client.Connect("127.0.0.1", server.port()).ok()) {
          failures[c] = "connect failed";
          return;
        }
        for (size_t round = 0; round < kRounds; ++round) {
          for (size_t i = 0; i < batch.size(); ++i) {
            // Offset starts so different verbs collide in time.
            const size_t at = (i + c) % batch.size();
            if (!client.SendLine(serve::RequestToJson(batch[at])).ok()) {
              failures[c] = "send failed";
              return;
            }
            std::string answer;
            if (!client.ReadLine(&answer).ok()) {
              failures[c] = "read failed";
              return;
            }
            auto parsed = serve::ParseResponse(answer);
            if (!parsed.ok() || parsed->ToStableJson() != expected[at]) {
              failures[c] = "request " + std::to_string(at) +
                            " diverged: " + answer;
              return;
            }
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }
  // Everything flowed through the socket counters.
  const auto snapshot = (*engine)->metrics().Snapshot();
  double requests = 0;
  for (const auto& [name, value] : snapshot) {
    if (name == "net_requests_total") requests = value;
  }
  EXPECT_EQ(requests, static_cast<double>(kClients * kRounds * batch.size()));
}

TEST_F(ServeNetTest, AdminVerbsActAsBarriersOverTheSocket) {
  // load → query-on-loaded → unload → query-on-unloaded, pipelined in one
  // write: the socket path must order admin verbs exactly like the stdin
  // batch window does.
  const std::string other_prefix = ::testing::TempDir() + "/serve_net_other";
  ASSERT_TRUE(datasets::SaveDatasetBundle(
                  datasets::MakeDataset(datasets::DatasetName::kTwitterMask,
                                        0.05, /*seed=*/11),
                  other_prefix)
                  .ok());

  auto engine = api::Engine::Open(EngineOptionsFor(4));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ServerOptions options;
  Server server(engine->get(), options);
  ASSERT_TRUE(server.Start().ok());

  std::vector<Request> batch;
  Request request;
  request.op = Request::Op::kLoad;
  request.dataset = "other";
  request.bundle = other_prefix;
  batch.push_back(request);
  request = {};
  request.op = Request::Op::kTopK;
  request.k = 3;
  request.dataset = "other";  // must see the load that precedes it
  batch.push_back(request);
  request = {};
  request.op = Request::Op::kUnload;
  request.dataset = "other";
  batch.push_back(request);
  request = {};
  request.op = Request::Op::kTopK;
  request.k = 3;
  request.dataset = "other";  // must see the unload that precedes it
  batch.push_back(request);

  std::string wire;
  for (const Request& r : batch) wire += serve::RequestToJson(r) + "\n";
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.SendBytes(wire).ok());
  std::vector<Response> responses;
  for (size_t i = 0; i < batch.size(); ++i) {
    std::string answer;
    ASSERT_TRUE(client.ReadLine(&answer).ok()) << "response " << i;
    auto parsed = serve::ParseResponse(answer);
    ASSERT_TRUE(parsed.ok()) << answer;
    responses.push_back(std::move(*parsed));
  }
  EXPECT_TRUE(responses[0].ok) << responses[0].error;
  EXPECT_TRUE(responses[1].ok) << responses[1].error;
  EXPECT_EQ(responses[1].dataset, "other");
  EXPECT_TRUE(responses[2].ok) << responses[2].error;
  EXPECT_FALSE(responses[3].ok);  // 'other' is gone again
  EXPECT_EQ((*engine)->registry().size(), 1u);

  for (const char* suffix : {".influence.edges", ".counts.edges",
                             ".campaigns.tsv", ".meta", ".sketch"}) {
    std::remove((other_prefix + suffix).c_str());
  }
}

// Lock-free accessor audit regression: QueueDepth and InFlight are read by
// monitoring code while the coordinator and executors mutate the lanes.
// An observer thread hammers both for the whole life of a batched run and
// asserts the documented bounds; under TSan (CI `tsan` job) this is the
// test that flags an accessor that stops taking the batcher mutex.
TEST_F(ServeNetTest, BatcherDepthAccessorsAreSafeUnderLoad) {
  auto engine = api::Engine::Open(EngineOptionsFor(2));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::atomic<size_t> delivered{0};
  BatcherOptions options;
  options.num_executors = 2;
  options.batch_max = 8;
  Batcher batcher(engine->get(), options,
                  [&delivered](uint64_t, uint64_t, std::string) {
                    delivered.fetch_add(1, std::memory_order_relaxed);
                  });

  std::atomic<bool> done{false};
  std::thread observer([&] {
    while (!done.load(std::memory_order_acquire)) {
      // "" is the lane key: MixedBatch-free tickets leave Request::dataset
      // empty (the sole loaded dataset).
      EXPECT_LE(batcher.QueueDepth(""), options.queue_depth);
      EXPECT_LE(batcher.InFlight(), options.num_executors);
    }
  });

  constexpr size_t kTickets = 96;
  size_t admitted = 0;
  for (size_t i = 0; i < kTickets; ++i) {
    Batcher::Ticket ticket;
    ticket.conn_id = 1;
    ticket.seq = i;
    ticket.request.op = Request::Op::kEvaluate;
    ticket.request.seeds = {1, 2};
    if (batcher.Submit(std::move(ticket))) ++admitted;
  }
  ASSERT_GE(admitted, 1u);
  while (delivered.load(std::memory_order_relaxed) < admitted) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true, std::memory_order_release);
  observer.join();
  batcher.Stop();
  EXPECT_EQ(delivered.load(), admitted);
  EXPECT_EQ(batcher.QueueDepth(""), 0u);
  EXPECT_EQ(batcher.InFlight(), 0u);
}

}  // namespace
}  // namespace voteopt::net
