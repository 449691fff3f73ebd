// The traced run's direct calls: each module's public functions timed from
// outside on the workload's own instance, plus the work counts they report.
// Nothing here goes through a socket; the net / serve / api / obs rows of
// the traced run are measured in main.cc around the socket phases.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>

#include "common.h"
#include "graph/graph.h"
#include "util/status.h"
#include "workload.h"

namespace perfbench {

/// Per-block resident-byte budget that cuts `graph` into about kOocBlocks
/// node-range blocks (sketch_ooc::PlanByBudget's currency).
uint64_t OocBlockBudget(const voteopt::graph::Graph& graph);

/// Measures the core, voting, opinion, graph, dyn, datasets, store and
/// sketch_ooc rows on the bundle at `bundle_prefix`. Scratch files go under
/// `work_dir`. Appends to `metrics`.
voteopt::Status MeasureModules(const WorkloadConfig& config, uint64_t seed,
                               const std::string& bundle_prefix,
                               const std::string& work_dir, Metrics* metrics);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
