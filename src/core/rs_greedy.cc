#include "core/rs_greedy.h"

#include <algorithm>
#include <cmath>

#include "core/accuracy.h"
#include "core/estimated_greedy.h"
#include "core/sketch.h"
#include "util/timer.h"

namespace voteopt::core {

SelectionResult RSGreedySelect(const ScoreEvaluator& evaluator, uint32_t k,
                               const RSOptions& options) {
  WallTimer timer;
  const uint32_t n = evaluator.num_users();
  Rng rng(options.rng_seed);

  uint64_t theta = options.theta_override;
  double opt_lb = 0.0;
  if (theta == 0) {
    if (evaluator.spec().kind == voting::ScoreKind::kCumulative) {
      opt_lb = CumulativeOptLowerBound(evaluator, k);
      if (options.refine_opt_bound) {
        opt_lb = RefineOptLowerBound(evaluator, k, options.epsilon, opt_lb,
                                     &rng);
      }
      theta = static_cast<uint64_t>(std::ceil(
          ThetaForCumulative(n, k, options.epsilon, options.l, opt_lb)));
    } else {
      theta = EstimateThetaByConvergence(evaluator, k, options.theta_start,
                                         options.theta_cap,
                                         options.convergence_tol,
                                         options.rng_seed);
    }
    theta = std::clamp<uint64_t>(theta, 1, options.theta_cap);
  }

  // The sketch is a pure function of (master_seed, theta), so the selected
  // seeds are identical for every thread count
  // (tests/core_sketch_parallel_test.cc pins the invariance).
  SketchBuildOptions build_options;
  build_options.num_threads = options.num_threads;
  std::unique_ptr<WalkSet> walks =
      BuildSketchSet(evaluator, theta, rng.Next(), build_options);
  EstimatedGreedyOptions greedy_options;
  greedy_options.num_threads = options.num_threads;
  SelectionResult result =
      EstimatedGreedySelect(evaluator, k, walks.get(), greedy_options);
  result.seconds = timer.Seconds();
  result.diagnostics["theta"] = static_cast<double>(theta);
  if (opt_lb > 0.0) result.diagnostics["opt_lower_bound"] = opt_lb;
  return result;
}

}  // namespace voteopt::core
