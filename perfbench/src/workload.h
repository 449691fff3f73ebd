// The three workloads: their instance recipe, server configuration and the
// request streams the load generator sends. Every stream is a pure function
// of (workload, seed, connection, position), so a run's traffic is fixed by
// its seed whatever the timing; the generated instance itself depends only
// on the workload, so seeds vary the traffic, not the graph.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "datasets/synthetic.h"
#include "dyn/mutation.h"
#include "graph/graph.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

enum class Kind : uint8_t {
  kCumulativeTopK,
  kPluralityTopK,
  kEvaluate,
  kCommit,
};

inline bool IsRead(Kind kind) { return kind != Kind::kCommit; }

struct StreamItem {
  Kind kind = Kind::kEvaluate;
  std::string line;         // the request as sent
  std::string traced_line;  // the same request with "trace": true
};

struct WorkloadConfig {
  std::string name;
  voteopt::datasets::DatasetName dataset =
      voteopt::datasets::DatasetName::kTwitterMask;
  double scale = 1.0;
  uint64_t theta = uint64_t{1} << 18;
  /// The bundle carries a persisted sketch, loaded through the mmap path.
  bool persisted_sketch = false;
  /// The bundle's graphs are binary CSR (.graphbin) members, and the server
  /// builds the sketch out of core under a budget that cuts the graph into
  /// kOocBlocks blocks.
  bool ooc = false;

  uint32_t connections = 1;
  size_t batch_max = 64;

  /// Cold opens timed per setup process; setup_s is the mean over processes
  /// of each one's median.
  uint32_t setup_opens = 5;
  /// Commits sent one at a time after each read phase (light, cold_ooc).
  /// churn interleaves its commits with reads instead.
  uint32_t commit_phase = 0;
  /// Commits replayed through the dyn layer by the traced run.
  uint32_t traced_commits = 16;
  /// Budget of the traced run's direct top-k selections.
  uint32_t select_k = 25;
  /// Distinct evaluate requests each connection cycles through.
  uint32_t evaluate_period = 256;
  /// Socket samples a run can keep (see SampleLog in main.cc).
  size_t sample_capacity = size_t{1} << 17;
};

/// Blocks the cold_ooc budget aims for (8 or more).
inline constexpr uint32_t kOocBlocks = 10;
/// Sketch horizon of every instance.
inline constexpr uint32_t kHorizon = 20;
/// Threads of every sketch build and repair.
inline constexpr uint32_t kBuildThreads = 2;

/// The configuration of a named workload; `tiny` shrinks every size so the
/// whole suite runs in seconds (the smoke self-test).
voteopt::Result<WorkloadConfig> ConfigFor(const std::string& name, bool tiny);

/// Deterministic edge-edit batches against a graph: 4 adds of absent edges
/// and 4 deletes of present ones per batch, tracking the edits already
/// issued so every batch applies cleanly on top of the previous ones.
class MutationSource {
 public:
  MutationSource(const voteopt::graph::Graph& graph, uint64_t seed);
  std::vector<voteopt::dyn::Mutation> Next();

 private:
  std::vector<std::vector<uint32_t>> in_sources_;  // in-row sources per node
  std::unordered_set<uint64_t> edges_;
  voteopt::Rng rng_;
};

/// An endless request stream, one sequence per connection.
class Stream {
 public:
  virtual ~Stream() = default;
  /// Request `index` of connection `conn`. References stay valid for the
  /// stream's lifetime.
  virtual const StreamItem& At(uint32_t conn, uint64_t index) = 0;
};

/// The workload's read traffic (churn: reads and commits interleaved).
std::unique_ptr<Stream> MakeReadStream(const WorkloadConfig& config,
                                       uint32_t connections, uint64_t seed,
                                       const voteopt::graph::Graph& graph);

/// Commit-only traffic: one connection of mutate batches.
std::unique_ptr<Stream> MakeCommitStream(uint64_t seed,
                                         const voteopt::graph::Graph& graph);

/// The fixed probes a finished instance answers for the journal and
/// out-of-core gates: one request of each read kind.
std::vector<StreamItem> ProbeItems();

/// FNV-1a over the first `per_conn` request lines of every connection.
uint64_t StreamHash(Stream& stream, uint32_t connections, uint64_t per_conn);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
