#include "core/sketch.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <future>

#include "core/estimated_greedy.h"
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
  const graph::AliasSampler alias(g);
  const WalkEngine engine(g, evaluator.target_campaign(), alias);
  auto walks = std::make_unique<WalkSet>(n);
  for (const WalkBuffer& unit :
       GenerateSketchWalks(engine, evaluator.horizon(), master_seed, theta,
                           {}, options.num_threads)) {
    walks->AddWalks(unit);
  }
  walks->Finalize(evaluator.target_campaign().initial_opinions);
  ApplySketchWeights(walks.get(), n, theta);
  return walks;
}

std::vector<WalkBuffer> GenerateSketchWalks(
    const WalkEngine& engine, uint32_t horizon, uint64_t master_seed,
    uint64_t count, std::span<const uint64_t> walk_indices,
    uint32_t num_threads) {
  assert(walk_indices.empty() || walk_indices.size() == count);
  uint32_t threads =
      num_threads == 0 ? ThreadPool::DefaultThreadCount() : num_threads;
  threads = std::max<uint32_t>(threads, 1);
  const uint64_t unit = std::clamp<uint64_t>(count / (4 * threads) + 1, 64,
                                             kSketchBlockWalks);
  const uint64_t num_units = (count + unit - 1) / unit;
  std::vector<WalkBuffer> units(num_units);
  auto run_unit = [&](uint64_t u) {
    const uint64_t begin = u * unit;
    const uint64_t end = std::min(count, begin + unit);
    units[u].nodes.reserve((end - begin) * (horizon / 4 + 1));
    if (walk_indices.empty()) {
      engine.GenerateSeeded(begin, end - begin, horizon, master_seed,
                            &units[u]);
      return;
    }
    for (uint64_t i = begin; i < end; ++i) {
      engine.GenerateSeeded(walk_indices[i], 1, horizon, master_seed,
                            &units[u]);
    }
  };

  threads = static_cast<uint32_t>(std::min<uint64_t>(threads, num_units));
  if (threads <= 1) {
    for (uint64_t u = 0; u < num_units; ++u) run_unit(u);
  } else {
    ThreadPool pool(threads);
    std::vector<std::future<void>> done;
    done.reserve(num_units);
    for (uint64_t u = 0; u < num_units; ++u) {
      done.push_back(pool.Submit([&run_unit, u] { run_unit(u); }));
    }
    for (auto& f : done) f.get();
  }
  return units;
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
