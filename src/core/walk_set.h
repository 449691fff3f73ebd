// Storage for t-step reverse random walks with Post-Generation Truncation
// (paper § V-B, Thm. 9).
//
// Walks are generated once with the empty seed set and stored flat. For a
// seed set S, a walk's estimate Y(t)[S] is the initial opinion of the end
// node after truncating the walk at the first occurrence of a node of S;
// truncating at a seed sets the value to 1 (a seed's initial opinion is 1).
//
// An inverted index node -> (walk, first position) lets the greedy loop
// compute the marginal gains of every candidate seed in one scan over the
// index (paper § V-B time-complexity discussion), and truncation after a
// selection is O(#walks containing the new seed).
//
// A WalkSet is split into two layers:
//  * FROZEN data — the walk nodes, offsets, starts, per-node walk counts
//    and weights, and the inverted index. Immutable after Finalize or
//    Splice, exposed as spans for serialization (store/), and adoptable
//    from externally owned memory (e.g. an mmap'd sketch file) without
//    copying.
//  * DYNAMIC state — per-walk values / effective lengths and per-node
//    estimate sums under the current seed set. Always owned, mutated by
//    Truncate, and rebuildable in O(num walks) with ResetValues so one
//    frozen sketch can serve many queries. Adopted and spliced sets are
//    frozen-only: they have no dynamic state until ResetValues.
//  * UNDO LOG — Truncate records each cut walk's prior effective length,
//    value and start-node sum before changing them, so UndoTruncations
//    restores the bytes of the last ResetValues in O(walks cut) instead
//    of O(num walks). Every reset or undo clears the log, so it holds at
//    most one selection's cuts: one entry per posting a seed cut.
//
// Threading contract (docs/ARCHITECTURE.md): the frozen layer is immutable
// after Finalize/Splice/AdoptFrozen and safe to read from any number of
// threads; the dynamic state is single-owner and must only be touched by
// one thread at a time. ShareFrozen clones a WalkSet by aliasing the frozen
// spans (zero-copy) while giving the clone its own dynamic state — that is
// how a concurrent server runs independent truncation-heavy queries against
// one shared sketch without locks.
#ifndef VOTEOPT_CORE_WALK_SET_H_
#define VOTEOPT_CORE_WALK_SET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace voteopt::core {

/// A worker-local batch of walks: concatenated node sequences plus per-walk
/// lengths. Cheaper than a WalkSet (no per-node state, no index), so shards
/// can be generated independently and merged into one WalkSet in a
/// deterministic order afterwards.
struct WalkBuffer {
  std::vector<graph::NodeId> nodes;  // concatenated walk nodes
  std::vector<uint32_t> lengths;     // per-walk length in nodes (>= 1)

  size_t num_walks() const { return lengths.size(); }
};

class WalkSet {
 public:
  /// One inverted-index posting: the walk and the first position (0-based,
  /// position 0 is the walk's start node) where the node occurs.
  struct Posting {
    uint32_t walk;
    uint32_t pos;
  };

  /// The frozen (immutable) layer as span views. After Finalize the spans
  /// alias the WalkSet's own vectors; after AdoptFrozen they alias external
  /// storage such as an mmap'd file.
  struct Frozen {
    std::span<const graph::NodeId> nodes;     // concatenated walk nodes
    std::span<const uint64_t> offsets;        // per-walk begin; num_walks+1
    std::span<const graph::NodeId> starts;    // per-walk start node
    std::span<const uint32_t> lambda;         // per-node walk count
    std::span<const double> start_weight;     // per-node score weight
    std::span<const uint64_t> index_offsets;  // num_nodes+1
    std::span<const Posting> index_entries;
  };

  explicit WalkSet(uint32_t num_nodes);

  // After Finalize the frozen views alias this object's own vectors, so
  // copying must re-point them at the copy's storage (an implicit shallow
  // copy would dangle once the source dies). Adopted sets share the
  // keep-alive instead — both copies read the same immutable mapping.
  // Moves are safe as-is: vector buffers transfer and the spans keep
  // pointing at them.
  WalkSet(const WalkSet& other);
  WalkSet& operator=(const WalkSet& other);
  WalkSet(WalkSet&&) = default;
  WalkSet& operator=(WalkSet&&) = default;

  /// Adopts externally owned frozen data without copying; `keep_alive` pins
  /// the backing storage (e.g. the mmap) for the WalkSet's lifetime. The
  /// caller must have validated internal consistency (the sketch store
  /// does). Dynamic state is empty until ResetValues is called.
  static std::unique_ptr<WalkSet> AdoptFrozen(
      uint32_t num_nodes, const Frozen& frozen,
      std::shared_ptr<const void> keep_alive);

  /// A new WalkSet aliasing this set's frozen layer (zero-copy) with its
  /// own — initially empty — dynamic state: the cheap per-worker clone
  /// behind concurrent serving. For an adopted set the existing keep-alive
  /// (e.g. the mmap) is shared and `keep_alive` may be null; for an owned
  /// set `keep_alive` must pin this WalkSet (e.g. a shared_ptr aliasing
  /// it), since the clone's views point into this object's vectors. Call
  /// ResetValues on the clone before use. Requires Finalize/AdoptFrozen.
  std::unique_ptr<WalkSet> ShareFrozen(
      std::shared_ptr<const void> keep_alive = nullptr) const;

  /// `base` with walk walk_indices[i] (ascending, unique) replaced by walk
  /// i of `replacements`; every replacement must start where the walk it
  /// replaces starts. One pass over the frozen layer: kept walks copy as
  /// runs with shifted offsets, starts, lambda and start weights copy from
  /// `base`, and the inverted index is patched — untouched node ranges
  /// copy verbatim, and a changed node keeps its base postings minus the
  /// replaced walks' and merges in the replacements' first occurrences in
  /// ascending walk order, the order Finalize emits. The frozen bytes
  /// equal AddWalks + Finalize over the spliced walk list with the base's
  /// start weights. The result is frozen-only: call ResetValues before
  /// reading values. `base` may be owned or adopted.
  static std::unique_ptr<WalkSet> Splice(
      const WalkSet& base, std::span<const uint64_t> walk_indices,
      const WalkBuffer& replacements);

  /// Appends a walk; `nodes` must be non-empty and nodes[0] is the start.
  void AddWalk(const std::vector<graph::NodeId>& nodes);

  /// Bulk-appends every walk of `buffer` in order. Equivalent to calling
  /// AddWalk per walk, but with a single nodes_ splice.
  void AddWalks(const WalkBuffer& buffer);

  /// Freezes the set: builds the inverted index and derives the dynamic
  /// state from `initial_opinions` (each walk's no-seed value is the
  /// initial opinion of its end node). Call exactly once, after all
  /// AddWalk calls.
  void Finalize(const std::vector<double>& initial_opinions);

  /// (Re-)derives the dynamic state from `initial_opinions`, undoing every
  /// truncation in one O(num_walks) pass — far cheaper than regenerating
  /// walks or rebuilding the index — and clears the undo log. Requires
  /// Finalize, Splice or AdoptFrozen; this is how a persisted sketch is
  /// reused across queries (and across updated campaign opinions).
  void ResetValues(const std::vector<double>& initial_opinions);

  /// Undoes every Truncate since the last ResetValues or UndoTruncations
  /// by replaying the undo log backwards, in O(walks cut): every value,
  /// effective length and estimate sum gets back the exact bytes that
  /// ResetValues left. Clears the log. Requires the dynamic state, i.e.
  /// one ResetValues (or Finalize) before.
  void UndoTruncations();

  // --- static shape -------------------------------------------------------
  uint32_t num_nodes() const { return num_nodes_; }
  size_t num_walks() const {
    return finalized_ ? frozen_.starts.size() : starts_.size();
  }
  /// lambda_v: number of walks starting at v.
  uint32_t Lambda(graph::NodeId v) const {
    return finalized_ ? frozen_.lambda[v] : lambda_[v];
  }
  graph::NodeId StartOf(uint32_t walk) const { return frozen_.starts[walk]; }
  size_t total_index_entries() const { return frozen_.index_entries.size(); }
  size_t memory_bytes() const;

  /// The frozen layer (requires Finalize / Splice / AdoptFrozen). This is
  /// what the sketch store serializes; saving is a pure function of these
  /// spans.
  const Frozen& frozen() const { return frozen_; }
  /// True when the frozen data lives in adopted external storage.
  bool adopted() const { return adopted_; }

  /// Per-start score weight: 1 for the RW method, n * lambda_v / theta for
  /// the RS sketches (default 1). Only valid on owned (non-adopted) sets;
  /// persisted sketches carry their weights in the file.
  void SetStartWeight(graph::NodeId v, double weight);
  double StartWeight(graph::NodeId v) const { return frozen_.start_weight[v]; }

  // --- dynamic state under the current seed set ---------------------------
  /// Current estimate Y of this walk (initial opinion of the effective end
  /// node; 1 once truncated at a seed).
  double Value(uint32_t walk) const { return values_[walk]; }
  /// Current effective length in nodes (after truncations).
  uint32_t EffectiveLen(uint32_t walk) const { return eff_len_[walk]; }
  /// Estimated opinion of start node v: average walk value (b-hat), or
  /// `fallback` when v has no walks (possible for sketches).
  double EstimatedOpinion(graph::NodeId v, double fallback = 0.0) const {
    const uint32_t lambda = frozen_.lambda[v];
    return lambda == 0 ? fallback
                       : est_sum_[v] / static_cast<double>(lambda);
  }

  /// Postings of node w (walks that contain w), grouped contiguously.
  std::span<const Posting> PostingsOf(graph::NodeId w) const {
    return frozen_.index_entries.subspan(
        frozen_.index_offsets[w],
        frozen_.index_offsets[w + 1] - frozen_.index_offsets[w]);
  }

  /// Makes w a seed: truncates every walk containing w at w's first
  /// occurrence and sets its value to 1. `on_change(walk, old_value)` is
  /// invoked for every walk whose value changed (old_value < 1). Each cut
  /// is recorded in the undo log first.
  void Truncate(graph::NodeId w,
                const std::function<void(uint32_t, double)>& on_change);

 private:
  /// Points the frozen views at the owned vectors.
  void FreezeOwned();
  /// Counting-sort construction of the first-occurrence inverted index.
  void BuildIndex();

  uint32_t num_nodes_;
  bool finalized_ = false;
  bool adopted_ = false;

  // Owned frozen storage (build path; empty after AdoptFrozen).
  std::vector<graph::NodeId> nodes_;   // concatenated walk nodes
  std::vector<uint64_t> offsets_;      // per-walk begin; size num_walks+1
  std::vector<graph::NodeId> starts_;  // per-walk start node
  std::vector<uint32_t> lambda_;       // per-node walk count
  std::vector<double> start_weight_;   // per-node score weight
  std::vector<uint64_t> index_offsets_;
  std::vector<Posting> index_entries_;
  /// Pins adopted external storage (mmap) for the WalkSet's lifetime.
  std::shared_ptr<const void> keep_alive_;

  Frozen frozen_;  // views over the owned vectors or adopted storage

  /// One undo-log entry: a walk's dynamic state before a cut.
  struct Cut {
    uint32_t walk;
    uint32_t eff_len;
    double value;
    double est_sum;  // est_sum_ of the walk's start node
  };

  // Dynamic state (always owned, rebuilt by ResetValues).
  std::vector<uint32_t> eff_len_;  // per-walk effective length
  std::vector<double> values_;     // per-walk current Y value
  std::vector<double> est_sum_;    // per-node sum of walk values
  std::vector<Cut> cuts_;          // undo log, oldest cut first
};

}  // namespace voteopt::core

#endif  // VOTEOPT_CORE_WALK_SET_H_
