// Concurrency coverage for the multi-dataset serving layer: answers must be
// bit-identical across worker-thread counts and across concurrent client
// threads (the frozen-view vs. per-query-state contract of
// docs/ARCHITECTURE.md), and the registry must load/evict datasets while
// the engine keeps answering.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"

namespace voteopt::api {
namespace {

/// Response JSON with the server-side timing stripped — everything that
/// must be invariant across thread counts and interleavings.
std::string StableJson(const Response& response) {
  return response.ToStableJson();
}

class ServeConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_a_ = ::testing::TempDir() + "/serve_conc_a";
    prefix_b_ = ::testing::TempDir() + "/serve_conc_b";
    ASSERT_TRUE(datasets::SaveDatasetBundle(
                    datasets::MakeDataset(datasets::DatasetName::kTwitterMask,
                                          0.05, /*seed=*/7),
                    prefix_a_)
                    .ok());
    ASSERT_TRUE(datasets::SaveDatasetBundle(
                    datasets::MakeDataset(datasets::DatasetName::kTwitterMask,
                                          0.05, /*seed=*/11),
                    prefix_b_)
                    .ok());
  }
  void TearDown() override {
    for (const std::string& prefix : {prefix_a_, prefix_b_}) {
      for (const char* suffix : {".influence.edges", ".counts.edges",
                                 ".campaigns.tsv", ".meta", ".sketch"}) {
        std::remove((prefix + suffix).c_str());
      }
    }
  }

  EngineOptions OptionsFor(const std::string& prefix,
                           uint32_t worker_threads) const {
    EngineOptions options;
    options.load.bundle_prefix = prefix;
    options.load.build_theta = 10000;
    options.load.build_horizon = 8;
    options.load.save_built_sketch = true;
    options.load.build_threads = 2;
    options.num_worker_threads = worker_threads;
    return options;
  }

  /// A mixed batch covering every query verb, several voting rules, and
  /// one deliberately invalid request (errors must be invariant too).
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
    {
      Request& r = add(Request::Op::kTopK);
      r.k = 3;
      r.rule = "copeland";
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
      Request& r = add(Request::Op::kTopK);
      r.k = 0;  // invalid on purpose
    }
    return batch;
  }

  std::string prefix_a_;
  std::string prefix_b_;
};

TEST_F(ServeConcurrencyTest, AnswersAreInvariantAcrossWorkerThreadCounts) {
  auto serial = Engine::Open(OptionsFor(prefix_a_, 1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = Engine::Open(OptionsFor(prefix_a_, 4));
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  const std::vector<Request> batch = MixedBatch();
  const std::vector<Response> serial_answers = (*serial)->ExecuteBatch(batch);
  const std::vector<Response> parallel_answers =
      (*parallel)->ExecuteBatch(batch);
  ASSERT_EQ(serial_answers.size(), parallel_answers.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(StableJson(serial_answers[i]), StableJson(parallel_answers[i]))
        << "request " << i << " diverged across thread counts";
  }
  // The parallel engine really did fan out.
  EXPECT_EQ((*parallel)->num_worker_threads(), 4u);
  EXPECT_GE((*parallel)->stats().worker_states, 1u);
}

TEST_F(ServeConcurrencyTest, ConcurrentClientsMatchSerialExecution) {
  auto engine = Engine::Open(OptionsFor(prefix_a_, 4));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Reference answers from strictly serial execution on a fresh engine.
  auto reference = Engine::Open(OptionsFor(prefix_a_, 1));
  ASSERT_TRUE(reference.ok());
  const std::vector<Request> batch = MixedBatch();
  std::vector<std::string> expected;
  for (const Request& request : batch) {
    expected.push_back(StableJson((*reference)->Execute(request)));
  }

  // Several client threads fire the same mixed batch concurrently, each
  // starting at a different offset so different verbs collide in time.
  constexpr size_t kClients = 4;
  constexpr size_t kRounds = 3;
  std::vector<std::vector<std::string>> got(kClients);
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t round = 0; round < kRounds; ++round) {
          for (size_t i = 0; i < batch.size(); ++i) {
            const size_t at = (i + c) % batch.size();
            got[c].push_back(
                std::to_string(at) + "|" +
                StableJson((*engine)->Execute(batch[at])));
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  for (size_t c = 0; c < kClients; ++c) {
    for (const std::string& tagged : got[c]) {
      const size_t bar = tagged.find('|');
      const size_t at = std::stoul(tagged.substr(0, bar));
      EXPECT_EQ(tagged.substr(bar + 1), expected[at])
          << "client " << c << " request " << at
          << " diverged under concurrency";
    }
  }
  const auto stats = (*engine)->stats();
  EXPECT_EQ(stats.queries, kClients * kRounds * batch.size());
  // One state per concurrently executing query at most — far fewer than
  // one per query.
  EXPECT_LE(stats.worker_states, kClients);
}

TEST_F(ServeConcurrencyTest, StatsCountersAreExactUnderConcurrentStress) {
  auto engine = Engine::Open(OptionsFor(prefix_a_, 4));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Four client threads each fire the mixed batch (which includes one
  // deliberately invalid request) several times, concurrently.
  const std::vector<Request> batch = MixedBatch();
  constexpr size_t kClients = 4;
  constexpr size_t kRounds = 2;
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        for (size_t round = 0; round < kRounds; ++round) {
          (*engine)->ExecuteBatch(batch);
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  const size_t issued = kClients * kRounds * batch.size();
  const size_t bad = kClients * kRounds;  // one invalid request per batch

  // The stats verb is an admin barrier, so after the joins its counters
  // are EXACT, not approximate: relaxed atomics still sum correctly.
  Request stats_request;
  stats_request.op = Request::Op::kStats;
  stats_request.v = 3;
  const Response stats = (*engine)->Execute(stats_request);
  ASSERT_TRUE(stats.ok) << stats.error;
  double queries_total = 0, errors_total = 0, batches = 0;
  for (const auto& [name, value] : stats.stats) {
    if (name.rfind("voteopt_queries_total", 0) == 0) queries_total += value;
    if (name.rfind("voteopt_errors_total", 0) == 0) errors_total += value;
    if (name.rfind("voteopt_batch_requests_count", 0) == 0) batches += value;
  }
  EXPECT_EQ(queries_total, static_cast<double>(issued));
  EXPECT_EQ(errors_total, static_cast<double>(bad));
  EXPECT_EQ(batches, static_cast<double>(kClients * kRounds));
  EXPECT_EQ(stats.stats.at("voteopt_batch_inflight"), 0.0);
  // engine_queries_total includes the stats request itself (counted on
  // entry); the voteopt_queries_total family does not (its increment runs
  // after dispatch, i.e. after the snapshot was taken).
  EXPECT_EQ(stats.stats.at("engine_queries_total"),
            static_cast<double>(issued + 1));
  EXPECT_EQ(stats.stats.at("engine_errors_total"), static_cast<double>(bad));

  // The metric counters and the engine's core atomics agree exactly.
  const auto engine_stats = (*engine)->stats();
  EXPECT_EQ(stats.stats.at("voteopt_evaluator_cache_hits_total"),
            static_cast<double>(engine_stats.evaluator_cache_hits));
  EXPECT_EQ(stats.stats.at("voteopt_evaluator_cache_misses_total"),
            static_cast<double>(engine_stats.evaluator_cache_misses));
  EXPECT_EQ(stats.stats.at("voteopt_sketch_resets_total"),
            static_cast<double>(engine_stats.sketch_resets));
  EXPECT_EQ(stats.stats.at("voteopt_worker_states_total"),
            static_cast<double>(engine_stats.worker_states));
}

TEST_F(ServeConcurrencyTest, AdminVerbsAreBatchOrderingBarriers) {
  auto engine = Engine::Open(OptionsFor(prefix_a_, 4));
  ASSERT_TRUE(engine.ok());

  std::vector<Request> batch;
  Request request;
  request.op = Request::Op::kList;
  batch.push_back(request);
  request = {};
  request.op = Request::Op::kLoad;
  request.dataset = "other";
  request.bundle = prefix_b_;
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

  const std::vector<Response> responses = (*engine)->ExecuteBatch(batch);
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_TRUE(responses[0].ok);
  ASSERT_EQ(responses[0].datasets.size(), 1u);  // only the bootstrap dataset
  EXPECT_TRUE(responses[1].ok) << responses[1].error;
  ASSERT_EQ(responses[1].datasets.size(), 1u);
  EXPECT_EQ(responses[1].datasets[0].name, "other");
  EXPECT_TRUE(responses[2].ok) << responses[2].error;
  EXPECT_EQ(responses[2].dataset, "other");
  EXPECT_EQ(responses[2].seeds.size(), 3u);
  EXPECT_TRUE(responses[3].ok) << responses[3].error;
  EXPECT_FALSE(responses[4].ok);  // 'other' is gone again
  EXPECT_EQ((*engine)->registry().size(), 1u);
}

TEST_F(ServeConcurrencyTest, UnloadEvictsIdleWorkerStates) {
  auto engine = Engine::Open(OptionsFor(prefix_a_, 2));
  ASSERT_TRUE(engine.ok());

  Request load;
  load.op = Request::Op::kLoad;
  load.dataset = "other";
  load.bundle = prefix_b_;
  ASSERT_TRUE((*engine)->Execute(load).ok);

  // Route queries to both datasets so each accumulates pooled state.
  Request query;
  query.op = Request::Op::kEvaluate;
  query.seeds = {1, 2};
  query.dataset = "default";
  ASSERT_TRUE((*engine)->Execute(query).ok);
  query.dataset = "other";
  ASSERT_TRUE((*engine)->Execute(query).ok);
  EXPECT_GE((*engine)->state_pool().IdleStates("other"), 1u);

  Request unload;
  unload.op = Request::Op::kUnload;
  unload.dataset = "other";
  ASSERT_TRUE((*engine)->Execute(unload).ok);
  // Eviction while idle: the pooled states died with the dataset.
  EXPECT_EQ((*engine)->state_pool().IdleStates("other"), 0u);
  EXPECT_EQ((*engine)->registry().size(), 1u);

  // Queries against the evicted name fail cleanly; the survivor still
  // answers; unloading twice reports NotFound.
  query.dataset = "other";
  EXPECT_FALSE((*engine)->Execute(query).ok);
  query.dataset = "default";
  EXPECT_TRUE((*engine)->Execute(query).ok);
  EXPECT_FALSE((*engine)->Execute(unload).ok);

  // A re-load under the same name serves again from a fresh generation.
  ASSERT_TRUE((*engine)->Execute(load).ok);
  query.dataset = "other";
  EXPECT_TRUE((*engine)->Execute(query).ok);
}

TEST_F(ServeConcurrencyTest, SingleWorkerReusesOneState) {
  auto engine = Engine::Open(OptionsFor(prefix_a_, 1));
  ASSERT_TRUE(engine.ok());
  std::vector<Request> batch;
  for (int i = 0; i < 6; ++i) {
    Request request;
    request.op = Request::Op::kEvaluate;
    request.seeds = {static_cast<graph::NodeId>(i)};
    batch.push_back(request);
  }
  for (const Response& response : (*engine)->ExecuteBatch(batch)) {
    EXPECT_TRUE(response.ok) << response.error;
  }
  // Sequential execution on one worker: every query checked out the same
  // pooled state.
  EXPECT_EQ((*engine)->stats().worker_states, 1u);
  EXPECT_EQ((*engine)->state_pool().IdleStates("default"), 1u);
}

// Lock-free accessor audit regression: the pool's observability accessors
// (IdleStates, states_created) are read by monitoring threads while
// workers check states in and out. An observer hammers both for the whole
// query storm and asserts states_created is monotone — which only holds
// if the accessors take the pool mutex. The CI `tsan` job runs this suite,
// so an accessor that drops the lock fails there too.
TEST_F(ServeConcurrencyTest, StatePoolAccessorsAreSafeUnderQueryStorm) {
  auto engine = Engine::Open(OptionsFor(prefix_a_, 4));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::vector<Request> batch = MixedBatch();

  std::atomic<bool> done{false};
  std::thread observer([&] {
    uint64_t floor = 0;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t created = (*engine)->state_pool().states_created();
      EXPECT_GE(created, floor) << "states_created went backwards";
      floor = created;
      (void)(*engine)->state_pool().IdleStates("default");
    }
  });

  constexpr size_t kClients = 3;
  constexpr size_t kRounds = 2;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < batch.size(); ++i) {
          (void)(*engine)->Execute(batch[(i + c) % batch.size()]);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  done.store(true, std::memory_order_release);
  observer.join();

  const uint64_t created = (*engine)->state_pool().states_created();
  EXPECT_GE(created, 1u);
  EXPECT_LE(created, kClients);  // one state per concurrent client at most
  EXPECT_GE((*engine)->state_pool().IdleStates("default"), 1u);
}

}  // namespace
}  // namespace voteopt::api
