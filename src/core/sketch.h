// Sketch construction for the RS method (paper § VI): theta t-step reverse
// walks from uniformly sampled start nodes, plus the machinery for choosing
// theta — Thm. 13 with an OPT lower bound for the cumulative score, and the
// empirical convergence heuristic of § VI-E for the rank-based scores.
#ifndef VOTEOPT_CORE_SKETCH_H_
#define VOTEOPT_CORE_SKETCH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/problem.h"
#include "core/walk_engine.h"
#include "core/walk_set.h"
#include "util/rng.h"

namespace voteopt::core {

/// Largest dispatch unit of the in-memory walk pool. Scheduling only: walk
/// j always draws from SketchWalkRng(master_seed, j), so the unit size
/// never changes the output.
inline constexpr uint64_t kSketchBlockWalks = 8192;

/// Knobs for BuildSketchSet.
struct SketchBuildOptions {
  /// Worker threads: 0 = one per hardware thread, 1 = run inline (no pool).
  uint32_t num_threads = 0;
};

/// Builds a sketch set: `theta` walks, each from a uniformly random start
/// (with replacement). Walk j draws its start and trajectory from its own
/// per-walk stream SketchWalkRng(master_seed, j) (see walk_engine.h);
/// walks are generated by the GenerateSketchWalks pool and merged in
/// walk-index order. The output is therefore a pure function of
/// (master_seed, theta) — bit-identical across runs and thread counts, and
/// bit-identical to the out-of-core block engine (sketch_ooc/) given the
/// same seed. Every master_seed, 0 included, is a valid seed. Start weights
/// are set to n * lambda_v / theta so the estimated scores follow
/// Eq. 35 / 42 / 47.
std::unique_ptr<WalkSet> BuildSketchSet(const ScoreEvaluator& evaluator,
                                        uint64_t theta, uint64_t master_seed,
                                        const SketchBuildOptions& options);

/// The in-memory walk pool under both BuildSketchSet and dyn repair:
/// generates `count` walks of the sketch keyed by `master_seed` through the
/// whole-graph `engine` and returns them as consecutive units in output
/// order. Output walk i is sketch walk walk_indices[i], or walk i itself
/// when `walk_indices` is empty (a full build). Units of
/// clamp(count / (4T) + 1, 64, kSketchBlockWalks) walks run on T =
/// `num_threads` threads (0 = one per hardware thread, 1 = inline); the
/// bytes never depend on T.
std::vector<WalkBuffer> GenerateSketchWalks(
    const WalkEngine& engine, uint32_t horizon, uint64_t master_seed,
    uint64_t count, std::span<const uint64_t> walk_indices,
    uint32_t num_threads);

/// Eq. 35/42/47 weighting: a start sampled lambda_v times represents
/// n * lambda_v / theta users. Call after WalkSet::Finalize. Shared by the
/// in-memory builder above and the out-of-core builder (sketch_ooc/).
void ApplySketchWeights(WalkSet* walks, uint32_t n, uint64_t theta);

/// Lower bound on OPT for the cumulative score. By monotonicity
/// OPT >= F(empty set), which the evaluator has already computed exactly;
/// OPT >= k because each seed contributes opinion 1 at its own node. The
/// returned value is max of both (never below 1).
double CumulativeOptLowerBound(const ScoreEvaluator& evaluator, uint32_t k);

/// Statistical refinement of the lower bound in the spirit of the
/// hypothesis test referenced by § VI-B (Algorithm 2 of [3]): tests
/// x = n/2, n/4, ... with progressively larger sketch sets and returns the
/// largest x for which the greedy estimate certifies OPT >= x, or
/// `fallback` when no x passes. Each test sketch is built inline with
/// master seed rng->Next().
double RefineOptLowerBound(const ScoreEvaluator& evaluator, uint32_t k,
                           double epsilon, double fallback, Rng* rng);

/// § VI-E heuristic for the plurality variants and Copeland: doubles theta
/// from `theta_start` until the exact score of the RS-selected seed set
/// changes by less than `tol` (relative) between consecutive doublings, or
/// until `theta_cap`. Returns the converged theta. Every round builds inline
/// with master seed `rng_seed`, so each sketch extends the previous one.
uint64_t EstimateThetaByConvergence(const ScoreEvaluator& evaluator,
                                    uint32_t k, uint64_t theta_start,
                                    uint64_t theta_cap, double tol,
                                    uint64_t rng_seed);

}  // namespace voteopt::core

#endif  // VOTEOPT_CORE_SKETCH_H_
