// perfbench: drives the in-process net::Server -> api::Engine stack over
// real loopback sockets and prints the workload's metrics as one JSON line.
//
//   perfbench gen --workload W --cache DIR [--tiny]
//       writes the workload's immutable input bundle under DIR
//   perfbench setup --workload W --cache DIR --work DIR [--tiny]
//       prints the median seconds of the workload's cold opens of a copy of
//       the bundle, each up to Server::Start returning
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --cache DIR --work DIR [--tiny]
//       copies the bundle into the fresh DIR given by --work, serves it,
//       measures, checks the answers, and prints the result (setup_s aside)
//
// run.py builds this binary, calls all three, and adds setup_s from several
// setup processes to the run's result; see README.md.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common.h"
#include "datasets/io.h"
#include "datasets/synthetic.h"
#include "layers.h"
#include "loadgen.h"
#include "net/server.h"
#include "serve/protocol.h"
#include "store/graph_store.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace api = voteopt::api;
using voteopt::Status;

/// The generated instance depends on the workload only; --seed varies the
/// traffic (see workload.h).
constexpr uint64_t kInstanceSeed = 1;
/// Equal-count windows the read throughput is taken over (median).
constexpr size_t kQpsWindows = 10;
/// Rounds of a run: each is a read phase and then a share of the commits.
constexpr uint32_t kRounds = 5;
/// Batcher executors: windows in flight at once.
constexpr uint32_t kExecutors = 2;

struct Args {
  std::string mode;
  std::string workload;
  std::string cache;
  std::string work;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

/// The library was built with the parent project's VOTEOPT_SANITIZE on.
constexpr bool kSanitized = PERFBENCH_SANITIZED != 0;

std::string BundlePrefix(const std::string& dir) { return dir + "/bundle"; }

/// Copies every member of the bundle in `from` into `to` (created).
Status CopyBundle(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::create_directories(to, ec);
  if (ec) return Status::IOError("mkdir " + to + ": " + ec.message());
  for (const auto& file : fs::directory_iterator(from)) {
    const std::string name = file.path().filename().string();
    if (name.rfind("bundle.", 0) != 0) continue;
    fs::copy_file(file.path(), fs::path(to) / name,
                  fs::copy_options::overwrite_existing, ec);
    if (ec) return Status::IOError("copy " + name + ": " + ec.message());
  }
  return Status::OK();
}

api::DatasetLoadOptions LoadOptions(const WorkloadConfig& config,
                                    const std::string& prefix,
                                    uint64_t block_budget) {
  api::DatasetLoadOptions load;
  load.bundle_prefix = prefix;
  load.build_theta = config.theta;
  load.build_horizon = kHorizon;
  load.build_threads = kBuildThreads;
  load.block_budget_bytes = block_budget;
  load.ooc_scratch_prefix = prefix + ".ooc";
  return load;
}

Status Gen(const WorkloadConfig& config, const std::string& cache) {
  std::error_code ec;
  fs::create_directories(cache, ec);
  if (ec) return Status::IOError("mkdir " + cache + ": " + ec.message());
  const std::string prefix = BundlePrefix(cache);
  voteopt::datasets::Dataset dataset = voteopt::datasets::MakeDataset(
      config.dataset, config.scale, kInstanceSeed);
  if (config.ooc) {
    VOTEOPT_RETURN_IF_ERROR(voteopt::store::SaveGraph(
        dataset.influence, prefix + ".influence.graphbin"));
    VOTEOPT_RETURN_IF_ERROR(voteopt::store::SaveGraph(
        dataset.counts, prefix + ".counts.graphbin"));
    VOTEOPT_RETURN_IF_ERROR(voteopt::datasets::SaveCampaigns(
        dataset.state, prefix + ".campaigns.tsv"));
    std::ofstream meta(prefix + ".meta");
    meta << "name " << dataset.name << "\ntarget " << dataset.default_target
         << "\n";
    if (!meta) return Status::IOError("cannot write " + prefix + ".meta");
  } else {
    VOTEOPT_RETURN_IF_ERROR(
        voteopt::datasets::SaveDatasetBundle(dataset, prefix));
  }
  if (config.persisted_sketch) {
    api::DatasetRegistry registry;
    api::DatasetLoadOptions load = LoadOptions(config, prefix, 0);
    load.save_built_sketch = true;
    auto entry = registry.Load("gen", load);
    if (!entry.ok()) return entry.status();
  }
  return Status::OK();
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Restarts VmHWM at the current RSS (Linux clear_refs value 5), after
/// handing the memory freed so far back to the system. False when the
/// kernel refuses: VmHWM then still holds the set-up peak.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5" << std::flush;
  return clear_refs.good();
}

uint64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t value = 0, steal = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> value; ++i) steal = value;
  return steal;
}

/// The socket samples of a run, in one buffer that is sized and touched
/// before the first open, so it never grows while the server runs.
/// peak_rss_mb subtracts bytes(): the number moves only with the server's
/// memory. Phases are index ranges into the buffer, each with its own time
/// origin.
struct SampleLog {
  using Range = std::pair<size_t, size_t>;

  explicit SampleLog(size_t capacity) {
    all.resize(capacity);
    all.clear();
  }

  size_t bytes() const { return all.capacity() * sizeof(Sample); }

  std::vector<Sample> all;
  std::vector<Range> untraced;
  std::vector<Range> traced;
};

/// Median over about kQpsWindows equal-count windows of completed reads
/// (split evenly across the phases), so one host stall sets one window's
/// rate, not the run's.
double WindowedQps(const std::vector<Sample>& samples,
                   const std::vector<SampleLog::Range>& phases) {
  const size_t per_phase =
      std::max<size_t>(1, kQpsWindows / std::max<size_t>(1, phases.size()));
  std::vector<double> rates;
  for (const auto& [begin, end] : phases) {
    std::vector<double> done;
    for (size_t i = begin; i < end; ++i) {
      if (IsRead(samples[i].kind)) done.push_back(samples[i].done_s);
    }
    std::sort(done.begin(), done.end());
    const size_t windows = std::min(per_phase, done.size());
    double prev = 0.0;
    for (size_t w = 0; w < windows; ++w) {
      const size_t lo = w * done.size() / windows;
      const size_t hi = (w + 1) * done.size() / windows;
      rates.push_back(static_cast<double>(hi - lo) / (done[hi - 1] - prev));
      prev = done[hi - 1];
    }
  }
  return Median(std::move(rates));
}

/// The median over phases of each phase's read-latency quantile q. A slow
/// spell of the host that covers one round lands in one round's tail
/// instead of setting the run's.
double RoundQuantileMs(const std::vector<Sample>& samples,
                       const std::vector<SampleLog::Range>& phases,
                       double q) {
  std::vector<double> per_round;
  for (const SampleLog::Range& phase : phases) {
    std::vector<double> ms;
    for (size_t i = phase.first; i < phase.second; ++i) {
      if (IsRead(samples[i].kind)) ms.push_back(samples[i].latency_s * 1e3);
    }
    if (!ms.empty()) per_round.push_back(Quantile(std::move(ms), q));
  }
  return Median(std::move(per_round));
}

std::vector<double> LatenciesMs(const std::vector<Sample>& samples,
                                const std::vector<SampleLog::Range>& phases,
                                bool reads) {
  std::vector<double> out;
  for (const auto& [begin, end] : phases) {
    for (size_t i = begin; i < end; ++i) {
      if (IsRead(samples[i].kind) == reads) {
        out.push_back(samples[i].latency_s * 1e3);
      }
    }
  }
  return out;
}

/// Everything one served instance answered, for the correctness gates.
/// Answers are filed under the round they were sent in: the commits that
/// end a round change what the next round's reads see.
struct AnswerLog {
  struct Answer {
    uint32_t round = 0;
    const StreamItem* item = nullptr;
    uint64_t hash = 0;  // Fnv1a of the stable answer
  };
  uint32_t round = 0;  // the round now being sent
  /// light and cold_ooc reads: the one stable answer per distinct request
  /// and round (within a round, answers cannot depend on order).
  std::map<std::pair<uint32_t, const StreamItem*>, std::string> distinct;
  /// churn (all traffic) and commit phases: answers in send order. This log
  /// grows with throughput, so it keeps a hash rather than the answer: the
  /// generator's memory stays out of peak_rss_mb.
  std::vector<Answer> ordered;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string mismatch;  // first disagreement between identical requests
};

ResponseSink MakeSink(AnswerLog* log, bool ordered) {
  return [log, ordered](const StreamItem& item, const std::string& response) {
    ++log->attempted;
    if (IsErrorLine(response)) ++log->failed;
    std::string stable = StableLine(response);
    if (ordered) {
      log->ordered.push_back({log->round, &item, Fnv1a(stable)});
      return;
    }
    auto [it, fresh] = log->distinct.emplace(std::pair(log->round, &item),
                                             stable);
    if (!fresh && it->second != stable && log->mismatch.empty()) {
      log->mismatch = "identical requests answered differently: " +
                      it->second + " vs " + stable;
    }
  };
}

/// Reads `"key": <number>` out of a traced response line.
bool DiagnosticMs(const std::string& line, const std::string& key,
                  double* value) {
  const size_t at = line.find("\"" + key + "\": ");
  if (at == std::string::npos) return false;
  *value = std::strtod(line.c_str() + at + key.size() + 4, nullptr);
  return true;
}

voteopt::Result<api::Request> Parse(const StreamItem& item) {
  return voteopt::serve::ParseRequest(item.line);
}

Status Mismatch(const std::string& socket, const std::string& replay) {
  return Status::Internal("socket answer differs from in-process replay: " +
                          socket + " vs " + replay);
}

/// Ledger entry 9: one round's socket answers equal an in-process replay.
Status CheckDistinct(api::Engine& engine, const AnswerLog& log,
                     uint32_t round) {
  for (const auto& [key, stable] : log.distinct) {
    if (key.first != round) continue;
    auto request = Parse(*key.second);
    if (!request.ok()) return request.status();
    const std::string expected = engine.Execute(*request).ToStableJson();
    if (expected != stable) return Mismatch(stable, expected);
  }
  return Status::OK();
}

/// Replays one round of an ordered log. A read repeated with no commit in
/// between must repeat its answer, so only the first of a run is executed.
Status CheckOrdered(api::Engine& engine, const AnswerLog& log,
                    uint32_t round) {
  const StreamItem* last_item = nullptr;
  std::string last_answer;
  for (const AnswerLog::Answer& answer : log.ordered) {
    if (answer.round != round) continue;
    const StreamItem* item = answer.item;
    std::string expected;
    if (IsRead(item->kind) && item == last_item) {
      expected = last_answer;
    } else {
      auto request = Parse(*item);
      if (!request.ok()) return request.status();
      expected = engine.Execute(*request).ToStableJson();
    }
    if (Fnv1a(expected) != answer.hash) {
      return Status::Internal("socket answer to " + item->line +
                              " differs from in-process replay: " + expected);
    }
    last_item = IsRead(item->kind) ? item : nullptr;
    last_answer = std::move(expected);
  }
  return Status::OK();
}

std::vector<std::string> ProbeAnswers(api::Engine& engine,
                                      const WorkloadConfig& config) {
  std::vector<std::string> answers;
  for (const StreamItem& item : ProbeItems()) {
    // The plurality scan over the large graph costs seconds; its
    // cumulative sibling exercises the same sketch.
    if (config.ooc && item.kind == Kind::kPluralityTopK) continue;
    answers.push_back(engine.Execute(Parse(item).value()).ToStableJson());
  }
  return answers;
}

/// A server over its engine. The server must go first: it holds the
/// engine's address.
struct ServedInstance {
  std::unique_ptr<api::Engine> engine;
  std::unique_ptr<voteopt::net::Server> server;

  void Close() {
    server.reset();
    engine.reset();
  }
};

class Runner {
 public:
  Runner(const Args& args, WorkloadConfig config)
      : args_(args),
        config_(std::move(config)),
        nproc_(std::max(1u, std::thread::hardware_concurrency())),
        connections_(std::min(config_.connections, nproc_)),
        // The generator thread and the server's I/O thread both work;
        // executors take what is left of nproc.
        executors_(std::clamp(nproc_ - std::min(nproc_, 2u), 1u, kExecutors)) {
  }

  /// The `setup` mode: the median of config.setup_opens cold opens of a
  /// fresh copy of the bundle, each up to Server::Start returning.
  Status TimeSetup(double* seconds);
  Status Run();
  void Print() const;
  bool correct() const { return correct_; }

 private:
  /// Copies the base bundle into `dir` and loads its graph, untimed.
  Status Stage(const std::string& dir);
  Status Open(const std::string& prefix, uint64_t budget, ServedInstance* out);
  /// One read phase; records its range of `log` under untraced or traced.
  Status ReadPhase(LoadGen& gen, Stream& stream, double seconds, bool traced,
                   SampleLog* log);
  Status Gates(const std::vector<std::string>& live_probes);
  /// api.execute and the transport overhead: the untraced phase's reads
  /// replayed in process on the same instance, plus the wire codec.
  Status InProcessRows(Stream& stream, const std::vector<double>& socket_ms);
  /// The traced spans and the engine's and server's own counters.
  void TracedRows();

  /// A value from an empty source is NaN; Run() rejects it.
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  const Args args_;
  const WorkloadConfig config_;
  const uint32_t nproc_;
  const uint32_t connections_;
  const uint32_t executors_;
  uint64_t budget_ = 0;
  std::string prefix_;
  voteopt::graph::Graph graph_;
  ServedInstance live_;
  AnswerLog reads_;
  AnswerLog commits_;
  std::vector<double> traced_dispatch_us_, traced_lease_us_;
  Metrics metrics_;
  std::ostringstream meta_;
  bool correct_ = true;
};

Status Runner::Open(const std::string& prefix, uint64_t budget,
                    ServedInstance* out) {
  api::EngineOptions options;
  options.load = LoadOptions(config_, prefix, budget);
  options.num_worker_threads = 1;
  auto engine = api::Engine::Open(options);
  if (!engine.ok()) return engine.status();
  out->engine = std::move(*engine);
  voteopt::net::ServerOptions server;
  server.batch.batch_max = config_.batch_max;
  server.batch.num_executors = executors_;
  server.batch.metrics = &out->engine->metrics();
  out->server =
      std::make_unique<voteopt::net::Server>(out->engine.get(), server);
  return out->server->Start();
}

Status Runner::Stage(const std::string& dir) {
  prefix_ = BundlePrefix(dir);
  VOTEOPT_RETURN_IF_ERROR(CopyBundle(args_.cache, dir));
  auto dataset = voteopt::datasets::LoadDatasetBundle(prefix_);
  if (!dataset.ok()) return dataset.status();
  graph_ = std::move(dataset->influence);
  budget_ = config_.ooc ? OocBlockBudget(graph_) : 0;
  return Status::OK();
}

Status Runner::TimeSetup(double* seconds) {
  VOTEOPT_RETURN_IF_ERROR(Stage(args_.work + "/setup"));
  std::vector<double> times;
  for (uint32_t i = 0; i < config_.setup_opens; ++i) {
    live_.Close();
    const Clock::time_point start = Clock::now();
    VOTEOPT_RETURN_IF_ERROR(Open(prefix_, budget_, &live_));
    times.push_back(SecondsSince(start));
  }
  live_.Close();
  *seconds = Median(std::move(times));
  return Status::OK();
}

Status Runner::ReadPhase(LoadGen& gen, Stream& stream, double seconds,
                         bool traced, SampleLog* log) {
  const bool ordered = config_.name == "churn";
  ResponseSink sink = MakeSink(&reads_, ordered);
  if (traced) {
    sink = [this, inner = std::move(sink)](const StreamItem& item,
                                           const std::string& response) {
      inner(item, response);
      if (!IsRead(item.kind)) return;
      // Two fields pulled out by hand: a full parse per response would slow
      // the generator in the traced half and bias obs.trace_overhead_pct.
      double ms = 0.0;
      if (DiagnosticMs(response, "stage.dispatch_ms", &ms)) {
        traced_dispatch_us_.push_back(ms * 1e3);
      }
      if (DiagnosticMs(response, "stage.state_lease_ms", &ms)) {
        traced_lease_us_.push_back(ms * 1e3);
      }
    };
  }
  const size_t begin = log->all.size();
  VOTEOPT_RETURN_IF_ERROR(gen.Run(stream, seconds, 0, traced, sink, &log->all));
  (traced ? log->traced : log->untraced).emplace_back(begin, log->all.size());
  return Status::OK();
}

Status Runner::Run() {
  VOTEOPT_RETURN_IF_ERROR(Stage(args_.work + "/live"));
  std::unique_ptr<Stream> stream =
      MakeReadStream(config_, connections_, args_.seed, graph_);
  std::unique_ptr<Stream> commit_stream = MakeCommitStream(args_.seed, graph_);
  const uint64_t stream_hash =
      StreamHash(*stream, connections_, 256) ^
      (config_.commit_phase > 0
           ? StreamHash(*commit_stream, 1, config_.commit_phase)
           : 0);

  SampleLog log(config_.sample_capacity);
  const uint64_t steal_before = StealTicks();
  VOTEOPT_RETURN_IF_ERROR(Open(prefix_, budget_, &live_));
  // peak_rss_mb is the serving peak: what staging and the open's transient
  // build left in the allocator must not count.
  const bool peak_reset = ResetPeakRss();
  if (!peak_reset) {
    std::cerr << "cannot restart VmHWM; peak_rss_mb includes set-up\n";
  }

  LoadGen gen, committer;
  VOTEOPT_RETURN_IF_ERROR(gen.Connect(live_.server->port(), connections_));
  if (config_.commit_phase > 0) {
    VOTEOPT_RETURN_IF_ERROR(committer.Connect(live_.server->port(), 1));
  }
  const double warm_s = std::clamp(0.1 * args_.seconds, 0.2, 1.0);
  std::vector<Sample> commit_samples;
  commit_samples.reserve(config_.commit_phase);
  VOTEOPT_RETURN_IF_ERROR(ReadPhase(gen, *stream, warm_s, false, &log));
  log.untraced.clear();  // the warm-up is not measured
  // Reads and commits alternate in rounds, so both see the whole run's host
  // conditions (churn's stream interleaves commits itself). The traced run
  // splits each round's read time: untraced first (the baseline of the
  // tracing overhead), then traced.
  const double read_s = args_.seconds / kRounds / (args_.trace ? 2 : 1);
  for (uint32_t r = 0; r < kRounds; ++r) {
    reads_.round = commits_.round = r;
    VOTEOPT_RETURN_IF_ERROR(ReadPhase(gen, *stream, read_s, false, &log));
    if (args_.trace) {
      if (r == 0) {
        VOTEOPT_RETURN_IF_ERROR(InProcessRows(
            *stream, LatenciesMs(log.all, log.untraced, true)));
      }
      VOTEOPT_RETURN_IF_ERROR(ReadPhase(gen, *stream, read_s, true, &log));
    }
    const uint64_t quota = (r + 1) * config_.commit_phase / kRounds -
                           r * config_.commit_phase / kRounds;
    if (quota > 0) {
      VOTEOPT_RETURN_IF_ERROR(committer.Run(*commit_stream, 0, quota,
                                            args_.trace,
                                            MakeSink(&commits_, true),
                                            &commit_samples));
    }
  }
  const double peak_rss =
      PeakRssMiB() - static_cast<double>(log.bytes()) / (1 << 20);

  const std::vector<double> read_ms = LatenciesMs(log.all, log.untraced, true);
  // churn's commits interleave with its reads.
  const std::vector<double> commit_ms =
      config_.commit_phase > 0
          ? LatenciesMs(commit_samples, {{0, commit_samples.size()}}, false)
          : LatenciesMs(log.all, log.untraced, false);
  // End-to-end numbers come from untraced runs only; a traced run reports
  // the per-layer rows.
  if (!args_.trace) {
    Add("peak_rss_mb", peak_rss, "MiB");
    Add("read_qps", WindowedQps(log.all, log.untraced), "1/s");
    Add("read_p50_ms", RoundQuantileMs(log.all, log.untraced, 0.5), "ms");
    Add("read_p90_ms", RoundQuantileMs(log.all, log.untraced, 0.9), "ms");
    Add("commit_p50_ms", Quantile(commit_ms, 0.5), "ms");
    Add("commit_p90_ms", Quantile(commit_ms, 0.9), "ms");
  }

  std::vector<std::string> live_probes = ProbeAnswers(*live_.engine, config_);
  if (args_.trace) {
    TracedRows();
    const double untraced_qps = WindowedQps(log.all, log.untraced);
    Add("obs.trace_overhead_pct",
        100.0 * (untraced_qps - WindowedQps(log.all, log.traced)) /
            untraced_qps,
        "%");
  }
  live_.Close();

  const Status gates = Gates(live_probes);
  if (!gates.ok()) {
    correct_ = false;
    std::cerr << "correctness gate failed: " << gates.ToString() << "\n";
  }
  if (!reads_.mismatch.empty()) {
    correct_ = false;
    std::cerr << "correctness gate failed: " << reads_.mismatch << "\n";
  }

  if (args_.trace) {
    // The cached base bundle is only read; scratch goes to the work dir.
    VOTEOPT_RETURN_IF_ERROR(MeasureModules(
        config_, args_.seed, BundlePrefix(args_.cache), args_.work, &metrics_));
  }
  // A source that recorded nothing (no traced spans, no batches, no
  // evaluator lookups) must fail the run, not print a plausible number.
  for (const Metric& metric : metrics_) {
    if (!std::isfinite(metric.value)) {
      return Status::Internal("metric " + metric.name +
                              " is not finite: its source recorded nothing");
    }
  }

  meta_ << "{\"workload\": \"" << config_.name << "\", \"seed\": "
        << args_.seed << ", \"stream_hash\": \"" << std::hex << stream_hash
        << std::dec << "\", \"trace\": " << (args_.trace ? 1 : 0)
        << ", \"tiny\": " << (args_.tiny ? 1 : 0)
        << ", \"nproc\": " << nproc_ << ", \"generator_threads\": 1"
        << ", \"connections\": " << connections_
        << ", \"server_io_threads\": 1, \"executors\": " << executors_
        << ", \"engine_workers\": 1, \"batch_max\": " << config_.batch_max
        << ", \"build_threads\": " << kBuildThreads
        << ", \"working_threads\": " << 2 + executors_
        << ", \"block_budget_bytes\": " << budget_
        << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
        << "\", \"read_samples\": " << read_ms.size()
        << ", \"sample_buffer_full\": "
        << (log.all.size() == log.all.capacity() ? "true" : "false")
        << ", \"peak_rss_reset\": " << (peak_reset ? "true" : "false")
        << ", \"commit_samples\": " << commit_ms.size()
        << ", \"steal_ticks\": " << StealTicks() - steal_before << "}";
  return Status::OK();
}

Status Runner::Gates(const std::vector<std::string>& live_probes) {
  // Reference: a fresh instance of the base bundle, always built in memory
  // — for cold_ooc this makes the replay check ledger entry 7 as well.
  const std::string ref_dir = args_.work + "/ref";
  VOTEOPT_RETURN_IF_ERROR(CopyBundle(args_.cache, ref_dir));
  {
    api::EngineOptions options;
    options.load = LoadOptions(config_, BundlePrefix(ref_dir), 0);
    auto ref = api::Engine::Open(options);
    if (!ref.ok()) return ref.status();
    for (uint32_t r = 0; r <= reads_.round; ++r) {
      VOTEOPT_RETURN_IF_ERROR(CheckDistinct(**ref, reads_, r));
      VOTEOPT_RETURN_IF_ERROR(CheckOrdered(**ref, reads_, r));
      VOTEOPT_RETURN_IF_ERROR(CheckOrdered(**ref, commits_, r));
    }
    if (ProbeAnswers(**ref, config_) != live_probes) {
      return Status::Internal("reference instance disagrees with the served "
                              "one after the same commits");
    }
  }
  // Ledger entry 10: reloading the served bundle replays its journal and
  // lands on the instance that was live.
  api::EngineOptions options;
  options.load = LoadOptions(config_, prefix_, budget_);
  auto reloaded = api::Engine::Open(options);
  if (!reloaded.ok()) return reloaded.status();
  if (ProbeAnswers(**reloaded, config_) != live_probes) {
    return Status::Internal("journal replay disagrees with the live instance");
  }
  return Status::OK();
}

Status Runner::InProcessRows(Stream& stream,
                             const std::vector<double>& socket_ms) {
  api::Engine& engine = *live_.engine;
  // The same read requests, executed in process on the same instance.
  std::vector<const StreamItem*> items;
  std::map<const StreamItem*, api::Request> parsed;
  for (uint64_t i = 0; items.size() < 512 && i < 4096; ++i) {
    const StreamItem& item = stream.At(static_cast<uint32_t>(i % connections_),
                                       i / connections_);
    if (!IsRead(item.kind)) continue;
    items.push_back(&item);
    if (!parsed.count(&item)) parsed.emplace(&item, Parse(item).value());
  }
  std::vector<double> execute_ms;
  std::vector<api::Response> responses;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; execute_ms.size() < 30 ||
                     (SecondsSince(start) < 1.0 && execute_ms.size() < 4096);
       ++i) {
    const api::Request& request = parsed.at(items[i % items.size()]);
    const Clock::time_point t = Clock::now();
    api::Response response = engine.Execute(request);
    execute_ms.push_back(SecondsSince(t) * 1e3);
    if (responses.size() < items.size()) responses.push_back(std::move(response));
  }
  const double execute_p50 = Median(execute_ms);
  Add("api.execute_p50_ms", execute_p50, "ms");
  Add("net.rtt_overhead_p50_ms",
      Quantile(socket_ms, 0.5) - execute_p50, "ms");

  // serve: the wire codec over the workload's own lines.
  const int reps = 20;
  Clock::time_point t = Clock::now();
  for (int r = 0; r < reps; ++r) {
    for (const StreamItem* item : items) (void)Parse(*item);
  }
  Add("serve.parse_us",
      SecondsSince(t) * 1e6 / static_cast<double>(reps * items.size()), "us");
  t = Clock::now();
  for (int r = 0; r < reps; ++r) {
    for (const api::Response& response : responses) (void)response.ToJson();
  }
  Add("serve.render_us",
      SecondsSince(t) * 1e6 / static_cast<double>(reps * responses.size()),
      "us");
  return Status::OK();
}

void Runner::TracedRows() {
  api::Engine& engine = *live_.engine;
  Add("api.dispatch_us", Median(traced_dispatch_us_), "us");
  Add("api.state_lease_us", Median(traced_lease_us_), "us");
  const api::Engine::Stats stats = engine.stats();
  Add("api.evaluator_hit_ratio",
      static_cast<double>(stats.evaluator_cache_hits) /
          static_cast<double>(stats.evaluator_cache_hits +
                              stats.evaluator_cache_misses),
      "ratio");
  Add("api.worker_states_created", static_cast<double>(stats.worker_states),
      "count");

  // net: the server's own instruments, as the stats verb reports them.
  const std::map<std::string, double> snapshot = engine.metrics().Snapshot();
  std::map<double, double> wait_buckets;  // le -> cumulative count
  double wait_count = 0, batch_sum = 0, batch_count = 0, shed = 0;
  for (const auto& [key, value] : snapshot) {
    if (key.rfind("net_queue_wait_seconds_bucket", 0) == 0) {
      const size_t le = key.find("le=\"");
      if (le == std::string::npos) continue;
      const std::string bound = key.substr(le + 4, key.find('"', le + 4) - le - 4);
      const double upper = bound == "+Inf" ? HUGE_VAL : std::stod(bound);
      wait_buckets[upper] += value;
    } else if (key.rfind("net_queue_wait_seconds_count", 0) == 0) {
      wait_count += value;
    } else if (key.rfind("net_batch_requests_sum", 0) == 0) {
      batch_sum += value;
    } else if (key.rfind("net_batch_requests_count", 0) == 0) {
      batch_count += value;
    } else if (key.rfind("net_shed_total", 0) == 0) {
      shed += value;
    }
  }
  // p50 by linear interpolation inside the bucket holding the median.
  double wait_p50 = 0, lower = 0, below = 0;
  for (const auto& [upper, cumulative] : wait_buckets) {
    if (cumulative >= wait_count / 2) {
      const double top = std::isfinite(upper) ? upper : lower;
      wait_p50 = cumulative == below
                     ? lower
                     : lower + (top - lower) * (wait_count / 2 - below) /
                                   (cumulative - below);
      break;
    }
    lower = upper;
    below = cumulative;
  }
  Add("net.queue_wait_p50_ms", wait_count > 0 ? wait_p50 * 1e3 : std::nan(""),
      "ms");
  Add("net.window_requests_mean", batch_sum / batch_count, "count");
  Add("net.shed", shed, "count");
}

void Runner::Print() const {
  std::cout << "# meta " << meta_.str() << "\n";
  std::cout << "{\"correct\": " << (correct_ ? "true" : "false")
            << ", \"attempted\": " << reads_.attempted + commits_.attempted
            << ", \"failed\": " << reads_.failed + commits_.failed
            << ", \"metrics\": {";
  if (correct_) {
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      std::cout << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name
                << "\": {\"value\": " << value << ", \"unit\": \""
                << metrics_[i].unit << "\"}";
    }
  }
  std::cout << "}}" << std::endl;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--cache") {
      args->cache = value;
    } else if (flag == "--work") {
      args->work = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->cache.empty() &&
         (args->mode == "gen" || !args->work.empty());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args) ||
      (args.mode != "gen" && args.mode != "setup" && args.mode != "run")) {
    std::cerr << "usage: perfbench gen|setup|run --workload W --cache DIR "
                 "[--work DIR --seed N --seconds S --trace 0|1] [--tiny]\n";
    return 2;
  }
  auto config = ConfigFor(args.workload, args.tiny);
  if (!config.ok()) {
    std::cerr << config.status().ToString() << "\n";
    return 2;
  }
  if (args.mode == "gen") {
    const Status status = Gen(*config, args.cache);
    if (!status.ok()) std::cerr << status.ToString() << "\n";
    return status.ok() ? 0 : 1;
  }
  if (std::string(PERFBENCH_BUILD_TYPE) == "Debug" || kSanitized) {
    std::cerr << "refusing to measure a Debug or sanitizer build\n";
    return 1;
  }
  Runner runner(args, *config);
  if (args.mode == "setup") {
    double seconds = 0.0;
    const Status status = runner.TimeSetup(&seconds);
    if (!status.ok()) {
      std::cerr << "setup failed: " << status.ToString() << "\n";
      return 1;
    }
    std::printf("%.17g\n", seconds);
    return 0;
  }
  const Status status = runner.Run();
  if (!status.ok()) {
    std::cerr << "run failed: " << status.ToString() << "\n";
    return 1;
  }
  runner.Print();
  return runner.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
