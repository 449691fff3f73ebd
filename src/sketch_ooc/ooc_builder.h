// The out-of-core sketch builder: generates the theta reverse walks of a
// sketch over a graph partitioned into node-range blocks whose alias tables
// are compiled one block at a time, and produces a WalkSet BIT-IDENTICAL
// to the in-memory core::BuildSketchSet for the same (master_seed, theta)
// — determinism ledger entry #7 in docs/ARCHITECTURE.md.
//
// Why bit-identity holds: this is a second scheduler over the in-memory
// builder's own pieces. Walk j opens its stream with core::StartSketchWalk,
// and every step runs core::WalkEngine::Advance over the resident block's
// graph::AliasSampler — the same class, built by the same per-row Vose
// code, that the in-memory builder samples the whole graph with. A walk's
// trajectory is therefore a pure function of (master_seed, j) — the
// scheduler may suspend a walk where Advance stops it at a partition
// boundary, park it on the destination block's queue, and resume it
// whenever that block is resident, in any order, on any thread, without
// changing a single byte of the result. Walks are reassembled in
// walk-index order, which is the in-memory builder's order.
//
// Scheduling: walks are seeded in waves of kOocWaveWalks (bounding resident
// trajectory memory), each wave's walks are parked on the block owning
// their current node, and rounds sweep the blocks in the fixed order
// 0 .. P-1, advancing every parked walk until it terminates or crosses
// into another block. What a block bounds is the alias tables: loading
// block b compiles the tables of its node range from the caller's resident
// in-CSR, and they are dropped when the sweep moves on, so at most one
// block's tables are live at a time. The graph itself and the n-sized
// campaign arrays (stubbornness, initial opinions) stay in memory; no
// file is read or written.
#ifndef VOTEOPT_SKETCH_OOC_OOC_BUILDER_H_
#define VOTEOPT_SKETCH_OOC_OOC_BUILDER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/walk_set.h"
#include "graph/graph.h"
#include "opinion/opinion_state.h"
#include "sketch_ooc/partition.h"
#include "util/status.h"

namespace voteopt::sketch_ooc {

/// Walks seeded per wave. Resident walk state is
/// kOocWaveWalks * (horizon + 2) node ids plus O(kOocWaveWalks) task
/// records, independent of theta.
inline constexpr uint64_t kOocWaveWalks = uint64_t{1} << 16;

struct OocBuildOptions {
  /// Worker threads for within-block advancement: 0 = one per hardware
  /// thread, 1 = run inline. Never changes the output.
  uint32_t num_threads = 0;
};

/// Diagnostics of one OOC build (scheduling-dependent; the WalkSet is not).
struct OocBuildStats {
  uint32_t num_blocks = 0;
  uint64_t waves = 0;
  uint64_t rounds = 0;         // block sweeps across all waves
  uint64_t block_loads = 0;    // alias-table compiles of a block's range
  uint64_t boundary_hops = 0;  // walk suspensions at partition boundaries
};

/// Builds the sketch over `graph` cut by `plan` (which must Validate
/// against it); for callers that pin a plan. `campaign` must have one
/// entry per node. The returned WalkSet has been finalized and carries the
/// Eq. 35/42/47 start weights — byte-for-byte what
/// core::BuildSketchSet(evaluator, theta, master_seed, options) produces,
/// for any thread count or block plan on either side.
Result<std::unique_ptr<core::WalkSet>> BuildSketchSetOoc(
    const graph::Graph& graph, const PartitionPlan& plan,
    const opinion::Campaign& campaign, uint32_t horizon, uint64_t theta,
    uint64_t master_seed, const OocBuildOptions& options,
    OocBuildStats* stats = nullptr);

/// BuildSketchSetOoc over the budget-driven plan PlanByBudget(graph,
/// block_budget_bytes) — the registry's `block_budget_bytes` path.
/// `scratch_prefix` is ignored (no file is written).
Result<std::unique_ptr<core::WalkSet>> BuildSketchSetOocFromGraph(
    const graph::Graph& graph, const opinion::Campaign& campaign,
    uint32_t horizon, uint64_t theta, uint64_t master_seed,
    uint64_t block_budget_bytes, const std::string& scratch_prefix,
    const OocBuildOptions& options, OocBuildStats* stats = nullptr);

/// Regenerates exactly the walks listed in `walk_indices` (global sketch
/// walk indices) over the budget-driven plan of `graph`, appending their
/// node sequences to `out` in list order. Because walk j is a pure
/// function of (master_seed, j, horizon) and the graph, each regenerated
/// walk is byte-identical to what a full (in-memory or OOC) build over the
/// same graph would produce for that index — the block-aware half of the
/// incremental sketch repairer (dyn/repair.h).
Status RegenerateWalksOocFromGraph(
    const graph::Graph& graph, const opinion::Campaign& campaign,
    uint32_t horizon, uint64_t master_seed,
    std::span<const uint64_t> walk_indices, uint64_t block_budget_bytes,
    const OocBuildOptions& options, core::WalkBuffer* out);

}  // namespace voteopt::sketch_ooc

#endif  // VOTEOPT_SKETCH_OOC_OOC_BUILDER_H_
