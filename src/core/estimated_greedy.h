// Greedy seed selection over estimated opinions (the selection loops of
// Algorithm 4 — random walks — and Algorithm 5 — sketches).
//
// Both methods reduce to the same engine: a WalkSet provides per-start
// estimated opinions b-hat under Post-Generation Truncation, and the
// estimated score is a per-start weighted sum,
//
//   F-hat = sum_{v : lambda_v > 0} weight_v * contribution(b-hat_v)
//
// with weight_v = 1 (RW, walks from every node) or n * lambda_v / theta
// (RS, Eq. 35/42/47). Selecting a seed truncates the walks that contain it
// (paper § V-B).
//
// Per-iteration evaluation strategy:
//  * Cumulative score — marginal gains are submodular (truncation only
//    raises walk values toward 1 and shortens effective lengths), so the
//    default path is CELF lazy evaluation (Leskovec et al.): a max-heap of
//    stale upper bounds, re-evaluating only the heap top until it is fresh.
//    Ties break on (gain, node id), which makes the selected sequence
//    bit-identical to the exhaustive one-scan-per-iteration path (kept
//    behind `lazy = false` as the oracle/bench baseline). Round 0 gets
//    every candidate's gain from CumulativeGains, one walk-ordered pass.
//  * Rank-sensitive scores and Copeland — gains are not submodular, so
//    every iteration scans all candidates; the scan parallelizes over
//    contiguous node-id chunks on a util::ThreadPool with per-chunk
//    DeltaAccumulator scratch. The reduction keeps the (gain, node id)
//    ordering, so the result is independent of the thread count.
//
// Competitor opinions at the horizon come exactly from the ScoreEvaluator
// (the paper computes them by direct matrix-vector multiplication, adding
// O((r-1) t m) once).
#ifndef VOTEOPT_CORE_ESTIMATED_GREEDY_H_
#define VOTEOPT_CORE_ESTIMATED_GREEDY_H_

#include <functional>
#include <vector>

#include "core/problem.h"
#include "core/walk_set.h"

namespace voteopt::core {

struct EstimatedGreedyOptions {
  /// Invoked after every seed selection with the current iteration number
  /// (1-based) and the walk set; used by the gamma* estimation heuristic
  /// (§ V-C) to observe estimated opinions along the greedy path.
  std::function<void(uint32_t, const WalkSet&)> on_iteration;
  /// Invoked after every seed selection with the 1-based prefix length, the
  /// selected seed prefix (in selection order), and the walk set. Returning
  /// true stops the selection early with exactly that prefix — the hook
  /// behind the single-pass min-seed fast path (min_seed.h), which checks
  /// the winning criterion per prefix instead of re-selecting per budget.
  std::function<bool(uint32_t, const std::vector<graph::NodeId>&,
                     const WalkSet&)>
      on_prefix;
  /// Compute the exact score of the selected seeds at the end (one extra
  /// propagation). Disable for inner helper runs.
  bool evaluate_exact = true;
  /// CELF lazy evaluation for the cumulative score (bit-identical seeds to
  /// the exhaustive scan; typically far fewer gain evaluations). Ignored by
  /// the rank-sensitive / Copeland paths, which are not submodular.
  bool lazy = true;
  /// Worker threads for the per-iteration gain scan of the rank-sensitive /
  /// Copeland paths and the exhaustive cumulative scan (1 = serial, 0 = one
  /// per hardware thread). The chunked scan and its (gain, node id)
  /// reduction are deterministic: every value returns the same seeds.
  uint32_t num_threads = 1;
};

/// Every node's cumulative marginal gain under the current truncation
/// state, in one pass over the walks (paper § V-B): each walk adds its term
/// (weight_s / lambda_s) * (1 - value), with the quotient divided once per
/// start s, to each node at that node's first occurrence inside the walk's
/// effective length. A node's postings are exactly those first occurrences,
/// in ascending walk order, so every gain sums the same terms in the same
/// order as a scan of its postings and is bit-identical to it. Resizes
/// `gains` to num_nodes.
void CumulativeGains(const WalkSet& walks, std::vector<double>* gains);

/// Runs k greedy iterations on `walks` (which must be finalized and is
/// consumed: its truncation state reflects the selected seeds afterwards).
/// Diagnostics include "estimated_score", "walks", "walk_memory_mb", and
/// "gain_evaluations" (full marginal-gain computations performed — the
/// CELF-vs-exhaustive work metric).
SelectionResult EstimatedGreedySelect(
    const ScoreEvaluator& evaluator, uint32_t k, WalkSet* walks,
    const EstimatedGreedyOptions& options = EstimatedGreedyOptions());

}  // namespace voteopt::core

#endif  // VOTEOPT_CORE_ESTIMATED_GREEDY_H_
