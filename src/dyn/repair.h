// Incremental sketch repair (determinism ledger entry 10).
//
// Why repair is possible, and why it is exact: walk j of a sketch keyed by
// `master_seed` draws its start and every transition from its own stream
// core::SketchWalkRng(master_seed, j) (PR 6's per-walk streams). An edge
// mutation u -> v changes only node v's in-row — the walks sample
// IN-neighbors, and the node count never changes, so a walk whose
// trajectory avoids every mutated node consumes exactly the same draws
// against the patched graph and reproduces exactly the same bytes. The
// walks that must be regenerated are precisely those whose trajectories
// visit a dirty node, and the WalkSet's inverted index (node -> walks
// containing it) IS the walk -> visited-nodes index read backwards: the
// dirty-walk set is the union of PostingsOf(v) over dirty v. Repair
// regenerates those walks from their seeded streams against the patched
// CSR — with a row-level alias rebuild for mutated rows only — and
// core::WalkSet::Splice puts them in place in one pass: clean walks keep
// their bytes, and the inverted index is patched (the dirty walks'
// postings leave, the regenerated walks' merge in by walk, the order a
// full index build emits) rather than rebuilt. The result is
// BIT-IDENTICAL to a from-scratch rebuild over the mutated graph, for any
// mutation schedule, thread count, and both the in-memory and out-of-core
// regeneration paths; core_walk_test's splice property test and
// dyn_equivalence_test pin it.
//
// Opinion mutations never dirty a node: trajectories depend only on the
// graph and stubbornness, so set_opinion costs zero walk regenerations
// (every query re-derives the value layer from the new opinions).
#ifndef VOTEOPT_DYN_REPAIR_H_
#define VOTEOPT_DYN_REPAIR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/walk_set.h"
#include "graph/alias_table.h"
#include "graph/graph.h"
#include "opinion/opinion_state.h"
#include "store/sketch_store.h"
#include "util/status.h"

namespace voteopt::dyn {

struct RepairOptions {
  /// Worker threads for walk regeneration: 0 = one per hardware thread,
  /// 1 = inline. Never changes the output.
  uint32_t num_threads = 0;
  /// > 0 routes regeneration through the out-of-core block engine with
  /// this per-block byte budget (the path OOC-hosted datasets use); 0 uses
  /// the in-memory alias tables.
  uint64_t block_budget_bytes = 0;
  /// Ignored: the out-of-core path writes no files.
  std::string ooc_scratch_prefix;
};

struct RepairStats {
  uint64_t walks_total = 0;
  uint64_t walks_repaired = 0;
  uint64_t dirty_nodes = 0;
};

struct RepairOutcome {
  /// The repaired sketch: its frozen layer is byte-for-byte what a
  /// from-scratch build over the patched graph produces. Frozen-only, like
  /// an mmap-loaded sketch: readers take a ShareFrozen view and call
  /// ResetValues, as every query does.
  std::unique_ptr<core::WalkSet> sketch;
  /// Alias tables over the patched graph, for the next repair's row-level
  /// reuse. Null on the OOC path (each block compiles its own range's
  /// tables).
  std::shared_ptr<const graph::AliasSampler> alias;
  RepairStats stats;
};

class SketchRepairer {
 public:
  /// Repairs `base` (the sketch built over the pre-mutation graph) into
  /// the sketch of `patched`. `campaign` is the PATCHED target campaign;
  /// `dirty_nodes` (ascending, unique) are the nodes whose in-rows
  /// changed; `base_alias` — alias tables over the PRE-mutation graph —
  /// enables the row-level incremental alias rebuild and may be null
  /// (full rebuild of the tables, walks still repaired incrementally).
  /// FailedPrecondition when a regenerated walk starts elsewhere than the
  /// base walk it replaces: `meta.master_seed` did not build `base`.
  static Result<RepairOutcome> Repair(const core::WalkSet& base,
                                      const graph::Graph& patched,
                                      const opinion::Campaign& campaign,
                                      const store::SketchMeta& meta,
                                      std::span<const graph::NodeId> dirty_nodes,
                                      const graph::AliasSampler* base_alias,
                                      const RepairOptions& options);
};

}  // namespace voteopt::dyn

#endif  // VOTEOPT_DYN_REPAIR_H_
