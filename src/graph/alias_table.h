// O(1) weighted sampling of in-neighbors via Walker/Vose alias tables.
//
// The reverse random walks of paper § V move from a node v to an in-neighbor
// u with probability w_uv (incoming weights sum to 1). Walk generation is the
// dominant cost of the RW and RS methods, so each node's categorical
// distribution is precompiled into an alias table: one uniform integer and
// one uniform real per step, independent of degree.
#ifndef VOTEOPT_GRAPH_ALIAS_TABLE_H_
#define VOTEOPT_GRAPH_ALIAS_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace voteopt::graph {

/// Per-node alias tables over the in-adjacency of a node range [lo, hi) —
/// the whole graph, or one out-of-core block (sketch_ooc/). Nodes are
/// addressed by GLOBAL id and sampled sources are global ids, so a walk
/// step reads the same on either. Row tables are pure functions of the
/// row's weight slice, so samplers over different ranges that share a row
/// hold identical entries for it and consume an Rng identically (one
/// UniformInt, one Uniform) — the out-of-core builder's bit-identity with
/// the in-memory one (determinism ledger entry #7) rests on this.
///
/// If a node's incoming weights sum to s < 1 they are sampled
/// proportionally (the table normalizes internally); the caller is expected
/// to pass column-stochastic graphs for exact paper semantics.
class AliasSampler {
 public:
  /// Sentinel returned by SampleInNeighbor for nodes without in-edges.
  static constexpr NodeId kNoNeighbor = static_cast<NodeId>(-1);

  /// Tables over the whole graph: the range [0, n).
  explicit AliasSampler(const Graph& graph);

  /// Tables over the in-rows of the node range [lo, hi) of `graph`
  /// (lo <= hi <= n), compiled from its in-CSR. Sampled sources are read
  /// from `graph`, which must outlive the sampler.
  AliasSampler(const Graph& graph, NodeId lo, NodeId hi);

  /// Incremental rebuild for dynamic graphs (src/dyn): whole-graph tables
  /// over `graph` where only the rows in `dirty_rows` (ascending, unique)
  /// differ from whole-graph sampler `base`'s graph. Clean rows copy base's
  /// prob/alias entries verbatim — exact even though global offsets shift —
  /// and Vose runs only on the dirty rows. Equivalent to
  /// AliasSampler(graph), at O(dirty) build cost. Reads only `base`'s owned
  /// arrays (tables + offsets snapshot), never the graph `base` was built
  /// over, so `base` may outlive its graph. Precondition: every row NOT
  /// listed dirty has an identical weight slice in both graphs.
  AliasSampler(const Graph& graph, const AliasSampler& base,
               std::span<const NodeId> dirty_rows);

  NodeId lo() const { return lo_; }
  NodeId hi() const { return hi_; }
  bool Contains(NodeId v) const { return v >= lo_ && v < hi_; }

  /// Draws an in-neighbor of v (lo() <= v < hi()) with probability
  /// proportional to the edge weight, or kNoNeighbor when v has no
  /// in-edges. O(1).
  NodeId SampleInNeighbor(NodeId v, Rng* rng) const {
    const uint64_t begin = offsets_[v - lo_], end = offsets_[v - lo_ + 1];
    if (begin == end) return kNoNeighbor;
    const uint64_t slot = begin + rng->UniformInt(end - begin);
    if (rng->Uniform() < prob_[slot]) return sources_[slot];
    return sources_[begin + alias_[slot]];
  }

  /// Exact sampling probability of the in-edge at slice position `slot`
  /// of node v (for tests).
  double Probability(NodeId v, size_t slot) const;

  size_t memory_bytes() const {
    return prob_.size() * sizeof(double) + alias_.size() * sizeof(uint32_t) +
           offsets_.size() * sizeof(uint64_t);
  }

 private:
  NodeId lo_ = 0;
  NodeId hi_ = 0;
  // The range's in-edge sources (graph-owned).
  std::span<const NodeId> sources_;
  // Parallel to sources_: acceptance probability and within-row alias
  // index.
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
  // Snapshot of the range's in-edge CSR offsets (hi - lo + 1 entries,
  // rebased to 0). Owned so clean-row copies in the incremental
  // constructor can locate base rows without touching base's — possibly
  // freed — graph.
  std::vector<uint64_t> offsets_;
};

}  // namespace voteopt::graph

#endif  // VOTEOPT_GRAPH_ALIAS_TABLE_H_
