#include "core/sketch.h"

#include <algorithm>
#include <cmath>

#include "core/estimated_greedy.h"
#include "core/walk_engine.h"
#include "graph/alias_table.h"
#include "util/thread_pool.h"

namespace voteopt::core {

namespace {

// The θ-search sketches below are built on the calling thread; the thread
// count never changes a sketch.
constexpr SketchBuildOptions kInline{.num_threads = 1};

}  // namespace

void ApplySketchWeights(WalkSet* walks, uint32_t n, uint64_t theta) {
  const double scale = static_cast<double>(n) / static_cast<double>(theta);
  for (graph::NodeId v = 0; v < n; ++v) {
    walks->SetStartWeight(v, scale * static_cast<double>(walks->Lambda(v)));
  }
}

std::unique_ptr<WalkSet> BuildSketchSet(const ScoreEvaluator& evaluator,
                                        uint64_t theta, uint64_t master_seed,
                                        const SketchBuildOptions& options) {
  const graph::Graph& g = evaluator.model().graph();
  const uint32_t n = g.num_nodes();
  graph::AliasSampler alias(g);
  const WalkEngine engine(g, evaluator.target_campaign(), alias);
  const uint32_t horizon = evaluator.horizon();

  const uint64_t num_blocks =
      (theta + kSketchBlockWalks - 1) / kSketchBlockWalks;
  std::vector<WalkBuffer> buffers(num_blocks);
  auto run_block = [&](uint64_t b) {
    const uint64_t begin = b * kSketchBlockWalks;
    const uint64_t count = std::min(kSketchBlockWalks, theta - begin);
    buffers[b].nodes.reserve(count * (horizon / 4 + 1));
    engine.GenerateSeeded(begin, count, horizon, master_seed, &buffers[b]);
  };

  uint32_t threads = options.num_threads == 0 ? ThreadPool::DefaultThreadCount()
                                              : options.num_threads;
  threads = static_cast<uint32_t>(
      std::min<uint64_t>(threads, std::max<uint64_t>(num_blocks, 1)));
  if (threads <= 1) {
    for (uint64_t b = 0; b < num_blocks; ++b) run_block(b);
  } else {
    ThreadPool pool(threads);
    std::vector<std::future<void>> done;
    done.reserve(num_blocks);
    for (uint64_t b = 0; b < num_blocks; ++b) {
      done.push_back(pool.Submit([&run_block, b] { run_block(b); }));
    }
    for (auto& f : done) f.get();
  }

  auto walks = std::make_unique<WalkSet>(n);
  for (const WalkBuffer& buffer : buffers) walks->AddWalks(buffer);
  walks->Finalize(evaluator.target_campaign().initial_opinions);
  ApplySketchWeights(walks.get(), n, theta);
  return walks;
}

double CumulativeOptLowerBound(const ScoreEvaluator& evaluator, uint32_t k) {
  const auto& base = evaluator.HorizonOpinions(evaluator.target());
  double f_empty = 0.0;
  for (double b : base) f_empty += b;
  return std::max({f_empty, static_cast<double>(k), 1.0});
}

double RefineOptLowerBound(const ScoreEvaluator& evaluator, uint32_t k,
                           double epsilon, double fallback, Rng* rng) {
  const uint32_t n = evaluator.num_users();
  double x = static_cast<double>(n) / 2.0;
  // Cheap per-test sketch budget; grows as the tested bound shrinks, as in
  // Algorithm 2 of [3].
  while (x >= std::max<double>(k, 1.0)) {
    const uint64_t theta = std::min<uint64_t>(
        static_cast<uint64_t>(std::ceil(
            (2.0 + 2.0 / 3.0 * epsilon) * static_cast<double>(n) *
            std::log(static_cast<double>(n)) / (epsilon * epsilon * x))),
        4ull * n);
    auto walks = BuildSketchSet(evaluator, theta, rng->Next(), kInline);
    EstimatedGreedyOptions opts;
    opts.evaluate_exact = false;  // the test uses the estimate only
    SelectionResult est = EstimatedGreedySelect(evaluator, k, walks.get(), opts);
    if (est.score >= (1.0 + epsilon) * x) {
      return std::max(fallback, est.score / (1.0 + epsilon));
    }
    x /= 2.0;
  }
  return fallback;
}

uint64_t EstimateThetaByConvergence(const ScoreEvaluator& evaluator,
                                    uint32_t k, uint64_t theta_start,
                                    uint64_t theta_cap, double tol,
                                    uint64_t rng_seed) {
  uint64_t theta = std::max<uint64_t>(theta_start, 16);
  double previous = -1.0;
  uint64_t last_stable = 0;
  int stable_rounds = 0;
  while (theta <= theta_cap) {
    auto walks = BuildSketchSet(evaluator, theta, rng_seed, kInline);
    const SelectionResult result =
        EstimatedGreedySelect(evaluator, k, walks.get());
    if (previous >= 0.0) {
      const double change = std::fabs(result.score - previous) /
                            std::max(1.0, std::fabs(result.score));
      if (change <= tol) {
        // Require two consecutive stable doublings before declaring
        // convergence: a single quiet doubling can be a fluke on the slow
        // climb toward the plateau (cf. Figs. 13-14).
        if (++stable_rounds >= 2) return last_stable;
        if (stable_rounds == 1) last_stable = theta;
      } else {
        stable_rounds = 0;
      }
    }
    previous = result.score;
    theta *= 2;
  }
  return std::min<uint64_t>(theta, theta_cap);
}

}  // namespace voteopt::core
