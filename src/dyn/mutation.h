// Dynamic-graph mutations (ROADMAP item 2): the typed edit vocabulary the
// streaming verbs (edge_add / edge_del / set_opinion) feed, the per-dataset
// MutationLog that orders them, and ApplyMutations — the one canonical
// patch function that turns (immutable instance, mutation sequence) into
// the next immutable instance.
//
// Semantics, chosen so the patched graph stays exactly what the rest of
// the system requires (a column-stochastic influence matrix over a fixed
// node universe):
//
//  * edge_add(u, v, w): inserts u -> v with relative weight w against the
//    row's current total, then renormalizes v's in-row to sum 1. On a
//    previously empty row the new edge gets weight 1. Fails when the edge
//    already exists (delete first to re-weight).
//  * edge_del(u, v): removes u -> v and renormalizes the surviving in-row.
//    Deleting the last in-edge leaves the row empty — walks reaching v
//    then stop there, exactly like any other source node.
//  * set_opinion(candidate, node, value): sets the candidate's initial
//    opinion b0[node]. Touches no edge and no stubbornness, so the frozen
//    sketch is untouched by construction (walk trajectories depend only on
//    the graph and stubbornness).
//
// Mutations are applied IN ORDER, one renormalization per edge edit, so a
// mutation sequence has exactly one patched instance — the determinism
// anchor for ledger entry 10 (repair == rebuild, see dyn/repair.h).
//
// ApplyMutations emits a builder-canonical graph: in-rows keep their
// stored order (insertions land at the sorted-by-source position
// GraphBuilder would have produced). Both CSRs are patched by runs, not
// re-derived: rows the batch leaves alone copy as runs with shifted
// offsets, and only a source with an entry in a mutated in-row, before or
// after the batch, rebuilds its out-row, merging its surviving entries
// with its patched ones in target order. The bytes equal what
// GraphBuilder's stable counting pass derives from the patched in-CSR, so
// the work beyond the copy is proportional to the batch's rows. A node
// whose in-row was not mutated keeps byte-identical sources and weights —
// which is what lets the sketch repairer reuse that node's alias row and
// every walk that avoids mutated nodes.
#ifndef VOTEOPT_DYN_MUTATION_H_
#define VOTEOPT_DYN_MUTATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "opinion/opinion_state.h"
#include "util/status.h"

namespace voteopt::dyn {

/// One streaming edit. For the edge kinds `u -> v` is the directed edge
/// and `value` the relative weight (edge_add only); for kSetOpinion `u` is
/// the candidate, `v` the node, and `value` the new initial opinion.
struct Mutation {
  enum class Kind : uint32_t {
    kEdgeAdd = 1,
    kEdgeDel = 2,
    kSetOpinion = 3,
  };

  Kind kind = Kind::kEdgeAdd;
  uint32_t u = 0;
  uint32_t v = 0;
  double value = 0.0;

  static Mutation EdgeAdd(uint32_t u, uint32_t v, double weight) {
    return {Kind::kEdgeAdd, u, v, weight};
  }
  static Mutation EdgeDel(uint32_t u, uint32_t v) {
    return {Kind::kEdgeDel, u, v, 0.0};
  }
  static Mutation SetOpinion(uint32_t candidate, uint32_t node, double value) {
    return {Kind::kSetOpinion, candidate, node, value};
  }
};

/// Wire/journal spelling of a mutation kind ("edge_add" / "edge_del" /
/// "set_opinion"); "?" for an invalid enum value.
const char* MutationKindName(Mutation::Kind kind);

/// The ordered, committed mutation history of one hosted dataset — what
/// the journal (dyn/journal.h) persists and a restarted process replays.
/// Entries are append-only; the log itself is a plain value (copied onto
/// each repaired DatasetEntry, which stays immutable once published).
class MutationLog {
 public:
  void Append(const Mutation& mutation) { mutations_.push_back(mutation); }
  void Append(std::span<const Mutation> mutations) {
    mutations_.insert(mutations_.end(), mutations.begin(), mutations.end());
  }

  std::span<const Mutation> mutations() const { return mutations_; }
  size_t size() const { return mutations_.size(); }
  bool empty() const { return mutations_.empty(); }

 private:
  std::vector<Mutation> mutations_;
};

/// The next immutable instance after a mutation batch.
struct PatchResult {
  graph::Graph graph;
  opinion::MultiCampaignState state;
  /// Nodes whose in-row changed (edge mutation targets), ascending and
  /// unique. Empty for opinion-only batches — the signal that no walk
  /// needs regeneration.
  std::vector<graph::NodeId> dirty_nodes;
  uint64_t edges_added = 0;
  uint64_t edges_deleted = 0;
  uint64_t opinions_set = 0;
};

/// Applies `mutations` in order to (graph, state) and returns the patched
/// instance plus its dirty-node set. `graph` must be builder-canonical, as
/// every graph GraphBuilder or ApplyMutations emits is; its clean rows are
/// copied, not re-sorted. Pure: inputs are untouched, and the
/// result is a deterministic function of the arguments. Fails with a clean
/// Status on the first invalid mutation (out-of-range ids, self loop,
/// non-positive/non-finite weight, duplicate add, missing delete,
/// out-of-[0,1] opinion) without partial effects.
Result<PatchResult> ApplyMutations(const graph::Graph& graph,
                                   const opinion::MultiCampaignState& state,
                                   std::span<const Mutation> mutations);

}  // namespace voteopt::dyn

#endif  // VOTEOPT_DYN_MUTATION_H_
