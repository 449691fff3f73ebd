// Friedkin-Johnsen opinion propagation (paper Eq. 2):
//
//   B_q(t+1) = B_q(t) W_q (I - D_q) + B_q(0) D_q
//
// evaluated per node as
//
//   b(t+1)[v] = (1 - d[v]) * sum_{u in In(v)} w_uv * b(t)[u] + d[v] * b0[v]
//
// over the in-CSR (one sparse mat-vec per timestamp, O(m)). DeGroot is the
// special case D = 0. Nodes without in-edges retain their previous opinion
// (paper § II-A). This exact propagation is the "DM" method of the paper's
// experiments and the ground truth the RW / RS estimators are tested against.
//
// Step schedule. Most steps recompute values that can no longer change. A
// row without in-edges keeps b0 forever: it settles at step 0. A row with
// in-edges whose in-sources all settled by step s-1 reads the same inputs at
// every later step, so from step s on it recomputes the same value bit for
// bit: it settles one step after its latest in-source. A row on a cycle, or
// downstream of one, never settles. One Kahn pass over the out-CSR assigns
// these settle steps; the schedule lists the rows with in-edges ordered by
// settle step, never-settling rows first (8 bytes per row).
//
// Propagation keeps two buffers, both starting at b0. Step s writes one of
// them from the other and computes only the rows whose settle step is at
// least s - 1. A row with settle step k thus runs through step k + 1: steps
// k and k + 1 write its final value into the two buffers, and every later
// step would write that same value again. Every row that is computed runs
// the same expression on the same inputs, in the same in-CSR order, as a
// full sweep over all n rows would, and every row that is skipped already
// holds what that sweep would write, so each returned vector is
// byte-identical to the full sweep's. Seeds are pinned to 1.0 after each
// step instead of raising b0 and d in a copy of the campaign; a seeded
// row's expression, (1 - 1) * aggregated + 1 * 1.0, is exactly 1.0 whenever
// the aggregate is finite, as it is for opinions in [0, 1] and finite
// weights.
//
// The schedule is compiled on the first propagation (or Step), not in the
// constructor, so building a model stays O(1). Compilation runs once under
// std::call_once; after that the schedule is read-only, so concurrent
// const calls on one shared model are safe, the first ones included.
#ifndef VOTEOPT_OPINION_FJ_MODEL_H_
#define VOTEOPT_OPINION_FJ_MODEL_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "graph/graph.h"
#include "opinion/opinion_state.h"

namespace voteopt::opinion {

/// Exact FJ/DeGroot propagation engine bound to one influence graph.
/// The graph must be column-stochastic for opinions to stay inside [0, 1].
class FJModel {
 public:
  explicit FJModel(const graph::Graph& graph) : graph_(&graph) {}

  /// One synchronous FJ step: fills `out` (resized to n) from `current`.
  /// `initial` and `stubbornness` are B_q(0) and diag(D_q).
  void Step(const std::vector<double>& current,
            const std::vector<double>& initial,
            const std::vector<double>& stubbornness,
            std::vector<double>* out) const;

  /// Opinions at time horizon t, i.e. t applications of Step starting from
  /// campaign.initial_opinions.
  std::vector<double> Propagate(const Campaign& campaign, uint32_t horizon) const;

  /// Propagate with a seed set applied to the campaign (b0, d raised to 1).
  std::vector<double> PropagateWithSeeds(
      const Campaign& campaign, const std::vector<graph::NodeId>& seeds,
      uint32_t horizon) const;

  /// Full trajectory: result[s] is the opinion vector at time s, for
  /// s = 0..horizon. Used by the drift experiment (paper Fig. 18).
  std::vector<std::vector<double>> Trajectory(const Campaign& campaign,
                                              uint32_t horizon) const;

  const graph::Graph& graph() const { return *graph_; }

 private:
  /// The rows with in-edges, by settle step (see the file comment).
  struct Schedule {
    static constexpr uint32_t kNeverSettles = UINT32_MAX;
    /// Row ids, settle step non-increasing; ties in ascending id order.
    std::vector<graph::NodeId> rows;
    /// settle[i] is the settle step of rows[i]; kNeverSettles on or
    /// downstream of a cycle.
    std::vector<uint32_t> settle;
  };

  static Schedule CompileSchedule(const graph::Graph& graph);
  const Schedule& schedule() const;

  /// `horizon` scheduled steps from the campaign's b0 with `seeds` pinned to
  /// 1.0; appends every snapshot to `trajectory` when it is non-null.
  std::vector<double> Run(const Campaign& campaign,
                          const std::vector<graph::NodeId>& seeds,
                          uint32_t horizon,
                          std::vector<std::vector<double>>* trajectory) const;

  const graph::Graph* graph_;
  mutable std::once_flag schedule_once_;
  mutable Schedule schedule_;
};

}  // namespace voteopt::opinion

#endif  // VOTEOPT_OPINION_FJ_MODEL_H_
