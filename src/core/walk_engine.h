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

#include <cassert>
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

/// Walk `walk_index` of the sketch keyed by `master_seed`, opened: its
/// start, drawn uniformly from the n nodes as the first draw of its
/// stream, and the stream positioned after that draw. Every scheduler
/// opens sketch walks through this.
struct SketchWalkStart {
  graph::NodeId node;
  Rng rng;
};
inline SketchWalkStart StartSketchWalk(uint64_t master_seed,
                                       uint64_t walk_index, uint32_t n) {
  SketchWalkStart walk{0, SketchWalkRng(master_seed, walk_index)};
  walk.node = static_cast<graph::NodeId>(walk.rng.UniformInt(n));
  return walk;
}

class WalkEngine {
 public:
  /// `campaign` and `alias` must outlive the engine. An engine over a
  /// sampler that covers only a node range (an out-of-core block) runs
  /// Advance alone; the Generate entry points need a whole-graph sampler.
  WalkEngine(const opinion::Campaign& campaign,
             const graph::AliasSampler& alias)
      : campaign_(&campaign), alias_(&alias) {}
  /// Whole-graph engine: `alias` must be built over `graph`.
  WalkEngine(const graph::Graph& graph, const opinion::Campaign& campaign,
             const graph::AliasSampler& alias)
      : WalkEngine(campaign, alias) {
    assert(alias.lo() == 0 && alias.hi() == graph.num_nodes());
    (void)graph;
  }

  /// Generates one walk with the EMPTY seed set (Post-Generation
  /// Truncation setup, Thm. 9). `out` receives the node sequence, start
  /// first; it always has between 1 and horizon+1 nodes.
  void Generate(graph::NodeId start, uint32_t horizon, Rng* rng,
                std::vector<graph::NodeId>* out) const;

  /// Generates walks `first_walk .. first_walk + count - 1` of the sketch
  /// keyed by `master_seed`, appending them to `out`. Walk j draws its
  /// start (StartSketchWalk) and its whole trajectory from
  /// SketchWalkRng(master_seed, j) — per-walk independent streams — so the
  /// output depends only on (master_seed, first_walk, count, horizon),
  /// never on batching or scheduling.
  void GenerateSeeded(uint64_t first_walk, uint64_t count, uint32_t horizon,
                      uint64_t master_seed, WalkBuffer* out) const;

  /// The one sketch-walk step loop (paper § V-A), under both the in-memory
  /// and the out-of-core scheduler. From head *head with *steps_left
  /// transitions allowed, each step draws absorption by the head's
  /// stubbornness (no draw when d >= 1), then an in-neighbor from the
  /// alias tables, and appends it through `out`. Returns with *steps_left
  /// == 0 once the walk terminates — absorbed, at a node without in-edges,
  /// or out of steps — and otherwise stops as soon as the head leaves the
  /// sampler's node range, steps remaining, for the scheduler to resume on
  /// the range that owns it. A whole-graph sampler never stops early.
  /// Precondition: alias.Contains(*head). Returns the advanced `out`.
  template <typename OutputIt>
  OutputIt Advance(graph::NodeId* head, uint32_t* steps_left, Rng* rng,
                   OutputIt out) const {
    // Locals, not the pointees: stores through `out` may alias them.
    graph::NodeId current = *head;
    uint32_t steps = *steps_left;
    while (steps > 0) {
      const double d = campaign_->stubbornness[current];
      if (d >= 1.0 || (d > 0.0 && rng->Uniform() < d)) {  // absorbed
        steps = 0;
        break;
      }
      const graph::NodeId next = alias_->SampleInNeighbor(current, rng);
      if (next == graph::AliasSampler::kNoNeighbor) {  // no in-edges
        steps = 0;
        break;
      }
      *out++ = next;
      --steps;
      current = next;
      if (!alias_->Contains(next)) break;
    }
    *head = current;
    *steps_left = steps;
    return out;
  }

  /// Direct Generation (paper § V-A) with a seed set applied: seeds are
  /// fully stubborn, so the walk is absorbed on reaching one. Returns the
  /// estimate X = b0[S][end node]. Used to validate Thm. 8 against Thm. 9.
  double GenerateWithSeeds(graph::NodeId start, uint32_t horizon,
                           const std::vector<bool>& is_seed, Rng* rng) const;

 private:
  const opinion::Campaign* campaign_;
  const graph::AliasSampler* alias_;
};

}  // namespace voteopt::core

#endif  // VOTEOPT_CORE_WALK_ENGINE_H_
