// Serve-layer benchmark: throughput and latency of the concurrent
// api::Engine (the dispatch path behind the wire protocol and every
// embedded caller) at 1..N worker threads over one hosted dataset.
//
// An offline pass builds + persists the sketch once; each measured
// configuration then opens a fresh engine over the persisted store (mmap)
// and answers the same deterministic mixed batch — topk selections
// interleaved with exact evaluations — through ExecuteBatch, which fans
// the queries out onto the worker pool. Recorded per thread count:
// wall-clock batch time, queries/sec, and the per-query handling latency
// distribution. The answers at every thread count are compared against the
// 1-thread run (modulo the millis field): the "answers match" column is
// the thread-count-invariance acceptance check of the serving layer.
//
// Two further sections drive the SAME mixed batch through the epoll TCP
// front end (net/server.h) over real loopback sockets:
//   * closed-loop — N client connections, each request waiting for its
//     answer: end-to-end round-trip latency through framing, admission,
//     coalescing, and write-back;
//   * open-loop — requests paced onto the socket at fixed target QPS
//     regardless of responses (the arrival model of real front-end load);
//     latency is measured from the SCHEDULED send instant, so queueing
//     delay counts, and `overloaded` sheds are reported rather than
//     hidden. Every socket answer is checked byte-identical (modulo
//     millis) against the in-process baseline.
//
//   --theta=<N>          sketch walks (default 2^17)
//   --queries=<N>        batch size (default 64)
//   --k=<N>              topk budget inside the mix (default 8)
//   --serve_threads=<L>  worker counts, e.g. 1,2,4 (default 1,2,4)
//   --repeats=<N>        best-of-N per configuration (default 3)
//   --net_clients=<N>    closed-loop client connections (default 4)
//   --closed_rounds=<N>  closed-loop passes over the batch per client
//                        (default 4)
//   --qps_levels=<L>     open-loop target QPS levels (default 200,800,2000)
//   --open_secs=<F>      open-loop duration per level, seconds (default 1.5)
//   --json_out=<p>       dump BENCH_serve.json
#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "datasets/io.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/protocol.h"
#include "util/timer.h"

using namespace voteopt;
using namespace voteopt::bench;

namespace {

/// Deterministic mixed batch: every 4th request a top-k selection (the
/// truncation-heavy path), the rest exact evaluations under per-request
/// seed sets and opinion overrides (the cheap read-mostly path).
std::vector<api::Request> MakeBatch(size_t queries, uint32_t k,
                                      uint32_t num_nodes) {
  std::vector<api::Request> batch;
  batch.reserve(queries);
  for (size_t i = 0; i < queries; ++i) {
    api::Request request;
    request.id = "q" + std::to_string(i);
    if (i % 4 == 0) {
      request.op = api::Request::Op::kTopK;
      request.k = k;
      request.rule = (i % 8 == 0) ? "cumulative" : "plurality";
    } else {
      request.op = api::Request::Op::kEvaluate;
      request.seeds = {static_cast<graph::NodeId>(i % num_nodes),
                       static_cast<graph::NodeId>((i * 7 + 1) % num_nodes)};
      request.overrides = {
          {static_cast<graph::NodeId>((i * 3) % num_nodes),
           static_cast<double>(i % 10) / 10.0}};
    }
    batch.push_back(std::move(request));
  }
  return batch;
}

double Percentile(std::vector<double>* latencies, double q) {
  if (latencies->empty()) return 0.0;
  std::sort(latencies->begin(), latencies->end());
  const size_t at = std::min(latencies->size() - 1,
                             static_cast<size_t>(
                                 static_cast<double>(latencies->size()) * q));
  return (*latencies)[at];
}

}  // namespace

int main(int argc, char** argv) {
  Options options(argc, argv);
  BenchEnv env = MakeEnv(options, "tw-mask", /*default_scale=*/0.1);
  const auto theta = static_cast<uint64_t>(options.GetInt("theta", 1 << 17));
  const auto queries = static_cast<size_t>(
      std::max<int64_t>(1, options.GetInt("queries", 64)));
  const uint32_t k = static_cast<uint32_t>(options.GetInt("k", 8));
  const int repeats =
      std::max<int>(1, static_cast<int>(options.GetInt("repeats", 3)));
  std::vector<int64_t> thread_counts =
      options.GetIntList("serve_threads", {1, 2, 4});
  const std::string prefix =
      options.GetString("store_path", "./bench_serve_bundle");

  if (Status st = datasets::SaveDatasetBundle(env.dataset, prefix);
      !st.ok()) {
    std::cerr << "bundle save failed: " << st.ToString() << "\n";
    return 1;
  }

  api::EngineOptions base;
  base.load.bundle_prefix = prefix;
  base.load.build_theta = theta;
  base.load.build_horizon = env.horizon;
  base.load.save_built_sketch = true;
  base.load.build_threads = 0;

  // Offline pass: build + persist the artifact once, outside the timings.
  WallTimer timer;
  {
    auto built = api::Engine::Open(base);
    if (!built.ok()) {
      std::cerr << "build failed: " << built.status().ToString() << "\n";
      return 1;
    }
  }
  const double build_sec = timer.Seconds();

  const std::vector<api::Request> batch =
      MakeBatch(queries, k, env.num_nodes());

  struct Row {
    uint32_t threads = 0;
    double total_sec = 0.0;
    double qps = 0.0;
    double mean_millis = 0.0;
    double p95_millis = 0.0;
    bool answers_match = true;
  };
  std::vector<Row> rows;
  std::vector<std::string> baseline;  // 1st configuration's stable answers
  bool all_match = true;

  for (const int64_t threads : thread_counts) {
    api::EngineOptions config = base;
    config.num_worker_threads = static_cast<uint32_t>(threads);
    Row row;
    row.threads = static_cast<uint32_t>(threads);
    row.total_sec = std::numeric_limits<double>::infinity();
    for (int trial = 0; trial < repeats; ++trial) {
      auto engine = api::Engine::Open(config);
      if (!engine.ok()) {
        std::cerr << "open failed: " << engine.status().ToString() << "\n";
        return 1;
      }
      timer.Restart();
      const std::vector<api::Response> responses =
          (*engine)->ExecuteBatch(batch);
      const double total_sec = timer.Seconds();

      std::vector<double> latencies;
      latencies.reserve(responses.size());
      double sum = 0.0;
      bool match = true;
      std::vector<std::string> stable;
      stable.reserve(responses.size());
      for (const api::Response& response : responses) {
        if (!response.ok) {
          std::cerr << "query failed: " << response.error << "\n";
          return 1;
        }
        latencies.push_back(response.millis);
        sum += response.millis;
        stable.push_back(response.ToStableJson());
      }
      if (baseline.empty()) {
        baseline = stable;
      } else {
        match = stable == baseline;
      }
      if (total_sec < row.total_sec) {
        row.total_sec = total_sec;
        row.qps = static_cast<double>(responses.size()) / total_sec;
        row.mean_millis = sum / static_cast<double>(responses.size());
        std::sort(latencies.begin(), latencies.end());
        row.p95_millis = latencies[latencies.size() * 95 / 100];
      }
      row.answers_match = row.answers_match && match;
    }
    all_match = all_match && row.answers_match;
    rows.push_back(row);
  }

  // ---- observability overhead: the identical batch with the metrics
  // registry + counters live (the default) vs enable_metrics=false. The
  // instrumentation is a handful of relaxed atomics per query, so the
  // wall-clock delta must stay within noise (<= 2% is the recorded gate);
  // answers must stay bit-identical either way (additive side channel).
  double metrics_on_sec = std::numeric_limits<double>::infinity();
  double metrics_off_sec = std::numeric_limits<double>::infinity();
  bool metrics_match = true;
  {
    api::EngineOptions config = base;
    config.num_worker_threads = static_cast<uint32_t>(thread_counts.back());
    for (const bool enabled : {false, true}) {
      config.enable_metrics = enabled;
      double& best_sec = enabled ? metrics_on_sec : metrics_off_sec;
      for (int trial = 0; trial < repeats; ++trial) {
        auto engine = api::Engine::Open(config);
        if (!engine.ok()) {
          std::cerr << "open failed: " << engine.status().ToString() << "\n";
          return 1;
        }
        std::vector<api::Response> responses;
        best_sec = std::min(best_sec, TimeSeconds([&] {
                              responses = (*engine)->ExecuteBatch(batch);
                            }));
        for (size_t i = 0; i < responses.size(); ++i) {
          metrics_match =
              metrics_match && responses[i].ToStableJson() == baseline[i];
        }
      }
    }
  }
  const double metrics_overhead_pct =
      (metrics_on_sec - metrics_off_sec) / metrics_off_sec * 100.0;
  all_match = all_match && metrics_match;

  // ---- TCP front end: the identical batch through net::Server over real
  // loopback sockets. One engine (max worker count) hosts the dataset for
  // both socket sections; the batcher's executor pool matches it.
  const int net_clients =
      std::max<int>(1, static_cast<int>(options.GetInt("net_clients", 4)));
  const int closed_rounds =
      std::max<int>(1, static_cast<int>(options.GetInt("closed_rounds", 4)));
  const std::vector<int64_t> qps_levels =
      options.GetIntList("qps_levels", {200, 800, 2000});
  const double open_secs = std::max(0.1, options.GetDouble("open_secs", 1.5));

  struct NetClosedRow {
    size_t requests = 0;
    double total_sec = 0.0;
    double qps = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    bool answers_match = true;
  } net_closed;

  struct NetOpenRow {
    int64_t target_qps = 0;
    size_t sent = 0;
    size_t shed = 0;
    double achieved_qps = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    bool answers_match = true;
  };
  std::vector<NetOpenRow> net_open_rows;

  {
    api::EngineOptions config = base;
    config.num_worker_threads = static_cast<uint32_t>(thread_counts.back());
    auto engine = api::Engine::Open(config);
    if (!engine.ok()) {
      std::cerr << "open failed: " << engine.status().ToString() << "\n";
      return 1;
    }
    net::ServerOptions server_options;
    server_options.batch.num_executors =
        static_cast<uint32_t>(thread_counts.back());
    server_options.batch.metrics = &(*engine)->metrics();
    net::Server server((*engine).get(), server_options);
    if (Status st = server.Start(); !st.ok()) {
      std::cerr << "server start failed: " << st.ToString() << "\n";
      return 1;
    }
    const uint16_t port = server.port();

    std::vector<std::string> wire_lines;  // request JSON per batch slot
    wire_lines.reserve(batch.size());
    for (const api::Request& request : batch) {
      wire_lines.push_back(serve::RequestToJson(request));
    }

    // Closed loop: every client connection walks the batch closed_rounds
    // times with exactly one request outstanding — RTT is the end-to-end
    // path through framing, admission, coalescing, and write-back.
    {
      std::vector<std::vector<double>> rtts(
          static_cast<size_t>(net_clients));
      std::vector<char> client_ok(static_cast<size_t>(net_clients), 1);
      std::vector<std::thread> client_threads;
      client_threads.reserve(static_cast<size_t>(net_clients));
      timer.Restart();
      for (int c = 0; c < net_clients; ++c) {
        client_threads.emplace_back([&, c] {
          net::BlockingClient client;
          if (!client.Connect("127.0.0.1", port).ok()) {
            client_ok[c] = 0;
            return;
          }
          for (int round = 0; round < closed_rounds; ++round) {
            for (size_t i = 0; i < wire_lines.size(); ++i) {
              const auto sent_at = std::chrono::steady_clock::now();
              std::string line;
              if (!client.SendLine(wire_lines[i]).ok() ||
                  !client.ReadLine(&line).ok()) {
                client_ok[c] = 0;
                return;
              }
              rtts[c].push_back(std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - sent_at)
                                    .count());
              auto response = serve::ParseResponse(line);
              if (!response.ok() ||
                  response->ToStableJson() != baseline[i]) {
                client_ok[c] = 0;
              }
            }
          }
        });
      }
      for (std::thread& t : client_threads) t.join();
      net_closed.total_sec = timer.Seconds();
      std::vector<double> all_rtts;
      for (int c = 0; c < net_clients; ++c) {
        net_closed.answers_match = net_closed.answers_match && client_ok[c];
        all_rtts.insert(all_rtts.end(), rtts[c].begin(), rtts[c].end());
      }
      const size_t expected_total = static_cast<size_t>(net_clients) *
                                    static_cast<size_t>(closed_rounds) *
                                    wire_lines.size();
      net_closed.answers_match =
          net_closed.answers_match && all_rtts.size() == expected_total;
      net_closed.requests = all_rtts.size();
      net_closed.qps =
          static_cast<double>(all_rtts.size()) / net_closed.total_sec;
      net_closed.p50_ms = Percentile(&all_rtts, 0.50);
      net_closed.p95_ms = Percentile(&all_rtts, 0.95);
      net_closed.p99_ms = Percentile(&all_rtts, 0.99);
      all_match = all_match && net_closed.answers_match;
    }

    // Open loop: requests paced onto ONE connection at the target rate
    // whether or not answers have come back (the arrival model of real
    // front-end load). Latency is measured from the SCHEDULED send
    // instant, so server-side queueing delay counts against the tail;
    // `overloaded` sheds are counted, and every non-shed answer is
    // checked byte-identical against the in-process baseline.
    for (const int64_t target_qps : qps_levels) {
      NetOpenRow row;
      row.target_qps = target_qps;
      const size_t total = std::max<size_t>(
          1,
          static_cast<size_t>(static_cast<double>(target_qps) * open_secs));
      net::BlockingClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        row.answers_match = false;
        net_open_rows.push_back(row);
        continue;
      }
      std::vector<double> recv_ms(total, -1.0);
      size_t shed = 0;
      bool match = true;
      const auto start = std::chrono::steady_clock::now();
      // One connection delivers answers in request order, so the i-th
      // response line IS the answer (or shed notice) for the i-th send.
      std::thread reader([&] {
        std::string line;
        for (size_t i = 0; i < total; ++i) {
          if (!client.ReadLine(&line, /*timeout_ms=*/30000).ok()) {
            match = false;
            return;
          }
          recv_ms[i] = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
          auto response = serve::ParseResponse(line);
          if (!response.ok()) {
            match = false;
            continue;
          }
          if (!response->ok &&
              response->error.find("Overloaded") != std::string::npos) {
            ++shed;
            continue;
          }
          if (response->ToStableJson() != baseline[i % baseline.size()]) {
            match = false;
          }
        }
      });
      for (size_t i = 0; i < total; ++i) {
        std::this_thread::sleep_until(
            start + std::chrono::microseconds(static_cast<int64_t>(
                        static_cast<double>(i) * 1e6 /
                        static_cast<double>(target_qps))));
        if (!client.SendLine(wire_lines[i % wire_lines.size()]).ok()) {
          match = false;
          break;
        }
      }
      reader.join();
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      std::vector<double> latencies;
      latencies.reserve(total);
      for (size_t i = 0; i < total; ++i) {
        if (recv_ms[i] < 0.0) continue;  // never answered (failure path)
        const double scheduled_ms = static_cast<double>(i) * 1000.0 /
                                    static_cast<double>(target_qps);
        latencies.push_back(recv_ms[i] - scheduled_ms);
      }
      row.sent = total;
      row.shed = shed;
      row.achieved_qps = static_cast<double>(latencies.size()) / elapsed;
      row.p50_ms = Percentile(&latencies, 0.50);
      row.p95_ms = Percentile(&latencies, 0.95);
      row.p99_ms = Percentile(&latencies, 0.99);
      row.answers_match = match && latencies.size() == total;
      all_match = all_match && row.answers_match;
      net_open_rows.push_back(row);
    }
    server.Stop();
  }

  for (const char* suffix : {".influence.edges", ".counts.edges",
                             ".campaigns.tsv", ".meta", ".sketch"}) {
    std::remove((prefix + suffix).c_str());
  }

  Table table({"threads", "total sec", "qps", "speedup", "mean ms",
               "p95 ms", "answers match"});
  for (const Row& row : rows) {
    table.Add(std::to_string(row.threads), Table::Num(row.total_sec, 4),
              Table::Num(row.qps, 1),
              Table::Num(rows.front().total_sec / row.total_sec, 2),
              Table::Num(row.mean_millis, 3), Table::Num(row.p95_millis, 3),
              row.answers_match ? "yes" : "NO");
  }
  Emit(env,
       "Serve: concurrent api::Engine throughput/latency (theta=" +
           std::to_string(theta) + ", " + std::to_string(queries) +
           " queries, k=" + std::to_string(k) + ", offline build " +
           Table::Num(build_sec, 2) + " s)",
       table);

  Table overhead_table({"metrics", "total sec", "overhead %", "answers match"});
  overhead_table.Add("off", Table::Num(metrics_off_sec, 4), "-",
                     metrics_match ? "yes" : "NO");
  overhead_table.Add("on", Table::Num(metrics_on_sec, 4),
                     Table::Num(metrics_overhead_pct, 2),
                     metrics_match ? "yes" : "NO");
  Emit(env, "Serve: observability overhead (registry + counters on vs off)",
       overhead_table);

  Table closed_table({"clients", "rounds", "requests", "total sec", "qps",
                      "p50 ms", "p95 ms", "p99 ms", "answers match"});
  closed_table.Add(std::to_string(net_clients), std::to_string(closed_rounds),
                   std::to_string(net_closed.requests),
                   Table::Num(net_closed.total_sec, 4),
                   Table::Num(net_closed.qps, 1),
                   Table::Num(net_closed.p50_ms, 3),
                   Table::Num(net_closed.p95_ms, 3),
                   Table::Num(net_closed.p99_ms, 3),
                   net_closed.answers_match ? "yes" : "NO");
  Emit(env,
       "Serve: TCP closed-loop round trips (epoll front end, loopback, " +
           std::to_string(net_clients) + " connections)",
       closed_table);

  Table open_table({"target qps", "sent", "shed", "achieved qps", "p50 ms",
                    "p95 ms", "p99 ms", "answers match"});
  for (const NetOpenRow& row : net_open_rows) {
    open_table.Add(std::to_string(row.target_qps), std::to_string(row.sent),
                   std::to_string(row.shed),
                   Table::Num(row.achieved_qps, 1),
                   Table::Num(row.p50_ms, 3), Table::Num(row.p95_ms, 3),
                   Table::Num(row.p99_ms, 3),
                   row.answers_match ? "yes" : "NO");
  }
  Emit(env,
       "Serve: TCP open-loop latency at target QPS (scheduled-send "
       "latency; queueing delay counts)",
       open_table);

  if (options.Has("json_out")) {
    std::ofstream out(options.GetString("json_out", "BENCH_serve.json"));
    out.precision(6);
    out << "{\n  \"bench\": \"bench_serve\",\n"
        << "  \"dataset\": \"" << env.dataset.name << "\",\n"
        << "  \"n\": " << env.num_nodes()
        << ",\n  \"m\": " << env.graph().num_edges()
        << ",\n  \"theta\": " << theta << ",\n  \"queries\": " << queries
        << ",\n  \"k\": " << k << ",\n  \"horizon\": " << env.horizon
        << ",\n  \"build_sec\": " << build_sec
        << ",\n  \"host\": " << HostMetadataJson() << ",\n  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      out << "    {\"threads\": " << row.threads << ", \"total_sec\": "
          << row.total_sec << ", \"qps\": " << row.qps
          << ", \"mean_query_millis\": " << row.mean_millis
          << ", \"p95_query_millis\": " << row.p95_millis
          << ", \"answers_match\": " << (row.answers_match ? "true" : "false")
          << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"metrics\": {\"enabled_sec\": " << metrics_on_sec
        << ", \"disabled_sec\": " << metrics_off_sec
        << ", \"overhead_pct\": " << metrics_overhead_pct
        << ", \"answers_match\": " << (metrics_match ? "true" : "false")
        << "},\n  \"net_closed\": {\"clients\": " << net_clients
        << ", \"rounds\": " << closed_rounds
        << ", \"requests\": " << net_closed.requests
        << ", \"total_sec\": " << net_closed.total_sec
        << ", \"qps\": " << net_closed.qps
        << ", \"p50_ms\": " << net_closed.p50_ms
        << ", \"p95_ms\": " << net_closed.p95_ms
        << ", \"p99_ms\": " << net_closed.p99_ms << ", \"answers_match\": "
        << (net_closed.answers_match ? "true" : "false")
        << "},\n  \"net_open\": [\n";
    for (size_t i = 0; i < net_open_rows.size(); ++i) {
      const NetOpenRow& row = net_open_rows[i];
      out << "    {\"target_qps\": " << row.target_qps
          << ", \"sent\": " << row.sent << ", \"shed\": " << row.shed
          << ", \"achieved_qps\": " << row.achieved_qps
          << ", \"p50_ms\": " << row.p50_ms << ", \"p95_ms\": " << row.p95_ms
          << ", \"p99_ms\": " << row.p99_ms << ", \"answers_match\": "
          << (row.answers_match ? "true" : "false") << "}"
          << (i + 1 < net_open_rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"answers_match_all\": " << (all_match ? "true" : "false")
        << "\n}\n";
  }
  if (!all_match) {
    std::cerr << "ERROR: answers diverged across worker thread counts\n";
    return 1;
  }
  return 0;
}
