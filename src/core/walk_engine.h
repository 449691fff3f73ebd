// Generation of t-step reverse random walks (paper § V-A).
//
// A walk at node u terminates there with probability d_u[S] (stubbornness;
// 1 for seeds); otherwise it moves to an in-neighbor sampled with
// probability w_uv via the alias tables. It stops after t transitions, when
// absorbed, or at a node without in-edges (such users retain their initial
// opinion, so the walk's value is well defined). The start node's estimated
// opinion is the initial opinion of the walk's end node (Thm. 8).
#ifndef VOTEOPT_CORE_WALK_ENGINE_H_
#define VOTEOPT_CORE_WALK_ENGINE_H_

#include <cstdint>
#include <vector>

#include "core/walk_set.h"
#include "graph/alias_table.h"
#include "graph/graph.h"
#include "opinion/opinion_state.h"
#include "util/rng.h"

namespace voteopt::core {

/// The one definition of a sketch walk's randomness — shared by the
/// in-memory and out-of-core builders, dyn repair, and the RS theta search:
/// walk `walk_index` of a sketch keyed by `master_seed` draws
/// every random number — its start node and every transition — from
/// Rng(master_seed + (walk_index + 1) * golden-ratio). The Rng constructor
/// runs the seed through splitmix64, which decorrelates consecutive walk
/// seeds. Because each walk owns its whole stream, a scheduler may suspend
/// and resume walks in ANY order (e.g. at out-of-core block boundaries,
/// carrying the Rng in the walk state) and still reproduce the exact bytes
/// of an in-memory build.
inline Rng SketchWalkRng(uint64_t master_seed, uint64_t walk_index) {
  return Rng(master_seed + (walk_index + 1) * 0x9E3779B97F4A7C15ULL);
}

class WalkEngine {
 public:
  /// `graph`, `campaign` and `alias` must outlive the engine; `alias` must
  /// be built over `graph`.
  WalkEngine(const graph::Graph& graph, const opinion::Campaign& campaign,
             const graph::AliasSampler& alias)
      : graph_(&graph), campaign_(&campaign), alias_(&alias) {}

  /// Generates one walk with the EMPTY seed set (Post-Generation
  /// Truncation setup, Thm. 9). `out` receives the node sequence, start
  /// first; it always has between 1 and horizon+1 nodes.
  void Generate(graph::NodeId start, uint32_t horizon, Rng* rng,
                std::vector<graph::NodeId>* out) const;

  /// Generates walks `first_walk .. first_walk + count - 1` of the sketch
  /// keyed by `master_seed`, appending them to `out`. Walk j draws its
  /// start (UniformInt(n)) and its whole trajectory from
  /// SketchWalkRng(master_seed, j) — per-walk independent streams — so the
  /// output depends only on (master_seed, first_walk, count, horizon),
  /// never on batching or scheduling. This is the unit of work of BOTH the
  /// in-memory sharded builder and the out-of-core block engine; their
  /// bit-identity rests on sharing this walk definition.
  void GenerateSeeded(uint64_t first_walk, uint64_t count, uint32_t horizon,
                      uint64_t master_seed, WalkBuffer* out) const;

  /// Direct Generation (paper § V-A) with a seed set applied: seeds are
  /// fully stubborn, so the walk is absorbed on reaching one. Returns the
  /// estimate X = b0[S][end node]. Used to validate Thm. 8 against Thm. 9.
  double GenerateWithSeeds(graph::NodeId start, uint32_t horizon,
                           const std::vector<bool>& is_seed, Rng* rng) const;

 private:
  /// The shared per-step dynamics: appends the walk's nodes after `start`
  /// to *nodes (start itself is the caller's). Both Generate entry points
  /// route through this, which is what guarantees their RNG-consumption
  /// parity.
  void Extend(graph::NodeId start, uint32_t horizon, Rng* rng,
              std::vector<graph::NodeId>* nodes) const;

  const graph::Graph* graph_;
  const opinion::Campaign* campaign_;
  const graph::AliasSampler* alias_;
};

}  // namespace voteopt::core

#endif  // VOTEOPT_CORE_WALK_ENGINE_H_
