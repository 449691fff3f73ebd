// Node-range partitioning of a graph's in-CSR for the out-of-core sketch
// engine (GraphWalker-style block sharding).
//
// A partition plan cuts the node id space [0, n) into P contiguous ranges
// [bounds[b], bounds[b+1]). Each range is one block: the unit whose alias
// tables the OOC walk scheduler compiles from the resident in-CSR and
// keeps live one at a time. Contiguous ranges keep BlockOf(v) a binary
// search and let a block's tables be compiled straight from the graph's
// in-CSR arrays with no reshuffling.
#ifndef VOTEOPT_SKETCH_OOC_PARTITION_H_
#define VOTEOPT_SKETCH_OOC_PARTITION_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace voteopt::sketch_ooc {

/// A contiguous node-range partition: bounds has num_blocks + 1 entries,
/// bounds.front() == 0, bounds.back() == n, strictly increasing.
struct PartitionPlan {
  std::vector<graph::NodeId> bounds;

  uint32_t num_blocks() const {
    return static_cast<uint32_t>(bounds.size()) - 1;
  }
  graph::NodeId num_nodes() const { return bounds.back(); }

  /// The block containing node v (v < num_nodes()). O(log P).
  uint32_t BlockOf(graph::NodeId v) const;

  /// Structural validation: monotone bounds covering [0, n).
  Status Validate(uint32_t expected_num_nodes) const;
};

/// Estimated bytes of node v's block share: its in-CSR slice (one uint64
/// offset + NodeId source + double weight per edge) plus its alias-table
/// rows (double prob + uint32 alias per edge). This is the currency
/// PlanByBudget cuts against. A block's sampler owns only the offsets and
/// alias rows (the slice stays in the resident graph), so the estimate
/// over-counts what a loaded block adds; it is kept as is so that plans,
/// and the scheduling counts that follow from them, stay unchanged.
uint64_t NodeResidentBytes(const graph::Graph& graph, graph::NodeId v);

/// Greedy budget-driven plan: nodes are appended to the current block until
/// its estimated resident bytes would exceed `block_budget_bytes`, then a
/// new block starts. Every block holds at least one node, so a single node
/// heavier than the budget still gets a (over-budget) block of its own.
/// InvalidArgument when the graph is empty or the budget is 0.
Result<PartitionPlan> PlanByBudget(const graph::Graph& graph,
                                   uint64_t block_budget_bytes);

/// Fixed-count plan: n nodes split into `num_blocks` near-equal contiguous
/// ranges (for tests and benchmarks that pin a block count directly —
/// including the pathological n-blocks-of-1). num_blocks is clamped to
/// [1, n]. InvalidArgument when the graph is empty.
Result<PartitionPlan> PlanByCount(const graph::Graph& graph,
                                  uint32_t num_blocks);

}  // namespace voteopt::sketch_ooc

#endif  // VOTEOPT_SKETCH_OOC_PARTITION_H_
