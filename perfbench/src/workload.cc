#include "workload.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "api/query.h"
#include "common.h"
#include "serve/protocol.h"
#include "voting/scores.h"

namespace perfbench {
namespace {

using voteopt::Status;
using voteopt::api::Request;
using voteopt::graph::NodeId;
using voteopt::voting::ScoreSpec;

constexpr uint32_t kTopK = 25;
constexpr uint32_t kEvaluateSeeds = 5;
constexpr uint32_t kEvaluateOverrides = 3;
/// churn repeats one commit, then this many reads.
constexpr uint64_t kChurnReads = 4;
constexpr uint32_t kAddsPerBatch = 4;
constexpr uint32_t kDeletesPerBatch = 4;

uint64_t EdgeKey(uint32_t u, uint32_t v) { return (uint64_t{u} << 32) | v; }

StreamItem Render(Kind kind, Request request) {
  request.v = voteopt::api::kProtocolVersion;
  StreamItem item;
  item.kind = kind;
  item.line = voteopt::serve::RequestToJson(request);
  request.trace = true;
  item.traced_line = voteopt::serve::RequestToJson(request);
  return item;
}

StreamItem TopK(bool plurality) {
  return plurality ? Render(Kind::kPluralityTopK,
                            Request::TopK(kTopK, ScoreSpec::Plurality()))
                   : Render(Kind::kCumulativeTopK,
                            Request::TopK(kTopK, ScoreSpec::Cumulative()));
}

/// light and cold_ooc: evaluate requests with seed-derived seed sets and
/// opinion overrides. Their costs are uniform, so coalescing cannot split
/// the percentiles into modes.
class EvaluateStream : public Stream {
 public:
  EvaluateStream(uint32_t connections, uint64_t seed, uint32_t num_nodes,
                 uint32_t period)
      : items_(connections) {
    voteopt::Rng rng(Mix(seed ^ 0x6c69676874ULL));
    for (auto& items : items_) {
      for (uint32_t i = 0; i < period; ++i) {
        std::vector<NodeId> seeds;
        while (seeds.size() < kEvaluateSeeds) {
          const auto v = static_cast<NodeId>(rng.UniformInt(num_nodes));
          if (std::find(seeds.begin(), seeds.end(), v) == seeds.end()) {
            seeds.push_back(v);
          }
        }
        Request request =
            Request::Evaluate(std::move(seeds), ScoreSpec::Cumulative());
        for (uint32_t o = 0; o < kEvaluateOverrides; ++o) {
          const auto user = static_cast<NodeId>(rng.UniformInt(num_nodes));
          request.overrides.emplace_back(
              user, static_cast<double>(rng.UniformInt(1001)) / 1000.0);
        }
        items.push_back(Render(Kind::kEvaluate, std::move(request)));
      }
    }
  }

  const StreamItem& At(uint32_t conn, uint64_t index) override {
    return items_[conn][index % items_[conn].size()];
  }

 private:
  std::vector<std::vector<StreamItem>> items_;
};

/// mutate commits, generated in order on first use.
class CommitStream : public Stream {
 public:
  CommitStream(const voteopt::graph::Graph& graph, uint64_t seed)
      : source_(graph, seed) {}

  const StreamItem& At(uint32_t /*conn*/, uint64_t index) override {
    return Commit(index);
  }

 protected:
  const StreamItem& Commit(uint64_t j) {
    while (commits_.size() <= j) {
      commits_.push_back(
          Render(Kind::kCommit, Request::Mutate(source_.Next())));
    }
    return commits_[j];
  }

 private:
  MutationSource source_;
  std::deque<StreamItem> commits_;  // references stay valid as it grows
};

/// churn: one connection repeating [mutate, 4 x cumulative top-k]. Every
/// commit evicts the worker states, so the first read after it is cold:
/// one read in four, which puts p50 in the warm mode and p90 in the cold.
class ChurnStream : public CommitStream {
 public:
  ChurnStream(const voteopt::graph::Graph& graph, uint64_t seed)
      : CommitStream(graph, seed), read_(TopK(false)) {}

  const StreamItem& At(uint32_t /*conn*/, uint64_t index) override {
    return index % (kChurnReads + 1) == 0
               ? Commit(index / (kChurnReads + 1))
               : read_;
  }

 private:
  StreamItem read_;
};

}  // namespace

voteopt::Result<WorkloadConfig> ConfigFor(const std::string& name,
                                          bool tiny) {
  using voteopt::datasets::DatasetName;
  WorkloadConfig config;
  config.name = name;
  if (name == "churn") {
    // tw-mask analog, n = 8000.
    config.scale = tiny ? 0.05 : 1.0;
    config.theta = tiny ? uint64_t{1} << 13 : uint64_t{1} << 18;
    config.setup_opens = tiny ? 3 : 5;
  } else if (name == "light") {
    config.scale = tiny ? 0.05 : 0.1;  // n = 800
    config.theta = tiny ? uint64_t{1} << 12 : uint64_t{1} << 16;
    config.persisted_sketch = true;
    config.connections = 4;
    config.setup_opens = tiny ? 3 : 41;  // each open is a few ms
    config.commit_phase = tiny ? 20 : 200;
    config.select_k = 10;
    // About 13K reads/s on a 4-vCPU host: over 2x headroom for 16 s.
    config.sample_capacity = size_t{1} << 19;
  } else if (name == "cold_ooc") {
    // tw-distancing analog, n = 100000, built out of core.
    config.dataset = DatasetName::kTwitterDistancing;
    config.scale = tiny ? 0.1 : 10.0;
    config.theta = tiny ? uint64_t{1} << 14 : uint64_t{1} << 20;
    config.ooc = true;
    config.connections = 2;
    config.batch_max = 1;
    config.setup_opens = 1;
    config.commit_phase = tiny ? 10 : 100;
    config.traced_commits = tiny ? 4 : 8;
    config.select_k = 10;
    config.evaluate_period = 16;  // the replay gate re-runs each one
  } else {
    return Status::InvalidArgument("unknown workload '" + name +
                                   "' (light, churn, cold_ooc)");
  }
  if (tiny) config.traced_commits = std::min<uint32_t>(config.traced_commits, 4);
  return config;
}

MutationSource::MutationSource(const voteopt::graph::Graph& graph,
                               uint64_t seed)
    : in_sources_(graph.num_nodes()), rng_(Mix(seed ^ 0x636875726eULL)) {
  const auto offsets = graph.InOffsets();
  const auto sources = graph.InSources();
  for (uint32_t v = 0; v < graph.num_nodes(); ++v) {
    for (uint64_t e = offsets[v]; e < offsets[v + 1]; ++e) {
      in_sources_[v].push_back(sources[e]);
      edges_.insert(EdgeKey(sources[e], v));
    }
  }
}

std::vector<voteopt::dyn::Mutation> MutationSource::Next() {
  using voteopt::dyn::Mutation;
  const auto n = static_cast<uint32_t>(in_sources_.size());
  std::vector<Mutation> batch;
  std::unordered_set<uint64_t> picked;
  while (batch.size() < kAddsPerBatch) {
    const auto u = static_cast<uint32_t>(rng_.UniformInt(n));
    const auto v = static_cast<uint32_t>(rng_.UniformInt(n));
    const uint64_t key = EdgeKey(u, v);
    if (u == v || edges_.count(key) != 0 || !picked.insert(key).second) {
      continue;
    }
    const double weight =
        std::round((0.05 + 0.45 * rng_.Uniform()) * 1000.0) / 1000.0;
    batch.push_back(Mutation::EdgeAdd(u, v, weight));
  }
  // Deletes skip rows with a single in-edge, so the graph keeps its reach.
  uint32_t deletes = 0;
  for (uint64_t attempt = 0;
       deletes < kDeletesPerBatch && attempt < uint64_t{64} * n; ++attempt) {
    const auto v = static_cast<uint32_t>(rng_.UniformInt(n));
    const std::vector<uint32_t>& row = in_sources_[v];
    if (row.size() < 2) continue;
    const uint32_t u = row[rng_.UniformInt(row.size())];
    if (!picked.insert(EdgeKey(u, v)).second) continue;
    batch.push_back(Mutation::EdgeDel(u, v));
    ++deletes;
  }
  for (const Mutation& m : batch) {
    std::vector<uint32_t>& row = in_sources_[m.v];
    if (m.kind == Mutation::Kind::kEdgeAdd) {
      row.push_back(m.u);
      edges_.insert(EdgeKey(m.u, m.v));
    } else {
      row.erase(std::find(row.begin(), row.end(), m.u));
      edges_.erase(EdgeKey(m.u, m.v));
    }
  }
  return batch;
}

std::unique_ptr<Stream> MakeReadStream(const WorkloadConfig& config,
                                       uint32_t connections, uint64_t seed,
                                       const voteopt::graph::Graph& graph) {
  if (config.name == "churn") return std::make_unique<ChurnStream>(graph, seed);
  return std::make_unique<EvaluateStream>(connections, seed, graph.num_nodes(),
                                          config.evaluate_period);
}

std::unique_ptr<Stream> MakeCommitStream(uint64_t seed,
                                         const voteopt::graph::Graph& graph) {
  return std::make_unique<CommitStream>(graph, seed);
}

std::vector<StreamItem> ProbeItems() {
  return {TopK(false), TopK(true),
          Render(Kind::kEvaluate,
                 Request::Evaluate({0, 1, 2, 3, 4}, ScoreSpec::Cumulative()))};
}

uint64_t StreamHash(Stream& stream, uint32_t connections, uint64_t per_conn) {
  uint64_t hash = Fnv1a("");
  for (uint32_t c = 0; c < connections; ++c) {
    for (uint64_t i = 0; i < per_conn; ++i) {
      hash = Fnv1a(stream.At(c, i).line + "\n", hash);
    }
  }
  return hash;
}

}  // namespace perfbench
