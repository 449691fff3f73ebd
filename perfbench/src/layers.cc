#include "layers.h"

#include <filesystem>
#include <memory>

#include "api/registry.h"
#include "api/state_pool.h"
#include "core/estimated_greedy.h"
#include "core/sketch.h"
#include "datasets/io.h"
#include "dyn/journal.h"
#include "dyn/mutation.h"
#include "dyn/repair.h"
#include "graph/alias_table.h"
#include "sketch_ooc/ooc_builder.h"
#include "sketch_ooc/partition.h"
#include "store/sketch_store.h"
#include "voting/evaluator.h"

namespace perfbench {

using voteopt::Status;
namespace api = voteopt::api;
namespace core = voteopt::core;
namespace dyn = voteopt::dyn;

namespace {

constexpr uint64_t kMasterSeed = 42;  // DatasetLoadOptions::rng_seed default
constexpr double kBudgetSeconds = 0.4;

double Ms(double seconds) { return seconds * 1e3; }

/// Times one selection of `k` seeds on a fresh working view: the reset is
/// untimed, the greedy loop is timed. Returns median seconds and the exact
/// gain-evaluation count (deterministic, the same every repetition).
std::pair<double, double> TimeSelection(
    const voteopt::voting::ScoreEvaluator& evaluator, uint32_t k,
    const std::shared_ptr<const core::WalkSet>& sketch,
    const std::vector<double>& opinions) {
  std::unique_ptr<core::WalkSet> view = sketch->ShareFrozen(sketch);
  core::EstimatedGreedyOptions options;
  options.evaluate_exact = false;
  double gain_evals = 0.0;
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < 2 ||
         (samples.size() < 9 && SecondsSince(start) < kBudgetSeconds)) {
    view->ResetValues(opinions);
    const Clock::time_point t = Clock::now();
    const core::SelectionResult result =
        core::EstimatedGreedySelect(evaluator, k, view.get(), options);
    samples.push_back(SecondsSince(t));
    const auto it = result.diagnostics.find("gain_evaluations");
    if (it != result.diagnostics.end()) gain_evals = it->second;
  }
  return {Median(std::move(samples)), gain_evals};
}

}  // namespace

uint64_t OocBlockBudget(const voteopt::graph::Graph& graph) {
  uint64_t total = 0;
  for (uint32_t v = 0; v < graph.num_nodes(); ++v) {
    total += voteopt::sketch_ooc::NodeResidentBytes(graph, v);
  }
  return total / kOocBlocks + 1;
}

Status MeasureModules(const WorkloadConfig& config, uint64_t seed,
                      const std::string& bundle_prefix,
                      const std::string& work_dir, Metrics* metrics) {
  auto add = [&](const char* name, double value, const char* unit) {
    metrics->push_back({name, value, unit});
  };

  // datasets / store: the two load paths a server's setup runs.
  double bundle_load_s = TimeMedian(
      [&] { (void)voteopt::datasets::LoadDatasetBundle(bundle_prefix); }, 3,
      9, kBudgetSeconds);
  auto loaded = voteopt::datasets::LoadDatasetBundle(bundle_prefix);
  if (!loaded.ok()) return loaded.status();
  add("datasets.bundle_load_s", bundle_load_s, "s");

  api::DatasetRegistry registry;
  api::HostOptions host;
  host.theta = config.theta;
  host.horizon = kHorizon;
  host.num_threads = kBuildThreads;
  host.rng_seed = kMasterSeed;
  auto hosted = registry.Host("layers", std::move(*loaded), host);
  if (!hosted.ok()) return hosted.status();
  std::shared_ptr<const api::DatasetEntry> entry = *hosted;
  const auto& dataset = entry->dataset;
  const auto& graph = dataset.influence;
  const uint32_t target = entry->meta.target;
  const auto& campaign = dataset.state.campaigns[target];

  std::string sketch_path = voteopt::datasets::BundleSketchPath(bundle_prefix);
  if (!config.persisted_sketch) {
    sketch_path = work_dir + "/layers.sketch";
    VOTEOPT_RETURN_IF_ERROR(
        voteopt::store::SaveSketch(*entry->sketch, entry->meta, sketch_path));
  }
  add("store.sketch_load_ms",
      Ms(TimeMedian(
          [&] {
            (void)voteopt::store::LoadSketch(
                sketch_path, voteopt::store::SketchLoadMode::kMmap);
          },
          3, 15, kBudgetSeconds)),
      "ms");

  // voting / opinion.
  using voteopt::voting::ScoreEvaluator;
  using voteopt::voting::ScoreSpec;
  add("voting.evaluator_build_ms",
      Ms(TimeMedian(
          [&] {
            ScoreEvaluator evaluator(*entry->model, dataset.state, target,
                                     kHorizon, ScoreSpec::Cumulative());
          },
          3, 15, kBudgetSeconds)),
      "ms");
  const std::vector<voteopt::graph::NodeId> seeds = {0, 1, 2, 3, 4};
  add("opinion.propagate_ms",
      Ms(TimeMedian(
          [&] {
            (void)entry->model->PropagateWithSeeds(campaign, seeds,
                                                   kHorizon);
          },
          3, 25, kBudgetSeconds)),
      "ms");

  // core: reset, both selection paths, and the in-memory build.
  const ScoreEvaluator cumulative(*entry->model, dataset.state, target,
                                  kHorizon, ScoreSpec::Cumulative());
  const ScoreEvaluator plurality(*entry->model, dataset.state, target,
                                 kHorizon, ScoreSpec::Plurality());
  const std::vector<double>& opinions = entry->target_opinions();
  {
    std::unique_ptr<core::WalkSet> view = entry->sketch->ShareFrozen(
        entry->sketch);
    add("core.reset_ms",
        Ms(TimeMedian([&] { view->ResetValues(opinions); }, 3, 25,
                      kBudgetSeconds)),
        "ms");
  }
  const auto [cum_s, cum_evals] =
      TimeSelection(cumulative, config.select_k, entry->sketch, opinions);
  const auto [plu_s, plu_evals] =
      TimeSelection(plurality, config.select_k, entry->sketch, opinions);
  add("core.selection_cumulative_ms", Ms(cum_s), "ms");
  add("core.selection_plurality_ms", Ms(plu_s), "ms");
  add("core.gain_evals_cumulative", cum_evals, "count");
  add("core.gain_evals_plurality", plu_evals, "count");

  core::SketchBuildOptions build;
  build.num_threads = kBuildThreads;
  const double build_s = TimeMedian(
      [&] {
        (void)core::BuildSketchSet(cumulative, config.theta, kMasterSeed,
                                   build);
      },
      1, 5, 2 * kBudgetSeconds);
  add("core.build_s", build_s, "s");
  add("core.walks_per_s", static_cast<double>(config.theta) / build_s, "1/s");

  // sketch_ooc: the same sketch built out of core, on the same graph, so
  // the ratio to core.build_s is the in-memory vs out-of-core comparison.
  {
    voteopt::sketch_ooc::OocBuildOptions ooc;
    ooc.num_threads = kBuildThreads;
    voteopt::sketch_ooc::OocBuildStats stats;
    const Clock::time_point t = Clock::now();
    auto walks = voteopt::sketch_ooc::BuildSketchSetOocFromGraph(
        graph, campaign, kHorizon, config.theta, kMasterSeed,
        OocBlockBudget(graph), work_dir + "/layers_ooc", ooc, &stats);
    const double ooc_s = SecondsSince(t);
    if (!walks.ok()) return walks.status();
    add("sketch_ooc.build_s", ooc_s, "s");
    add("sketch_ooc.walks_per_s", static_cast<double>(config.theta) / ooc_s,
        "1/s");
    add("sketch_ooc.block_loads", static_cast<double>(stats.block_loads),
        "count");
    add("sketch_ooc.boundary_hops", static_cast<double>(stats.boundary_hops),
        "count");
    add("sketch_ooc.rounds", static_cast<double>(stats.rounds), "count");
  }

  // graph: the full alias-table build the first edge commit pays.
  add("graph.alias_build_ms",
      Ms(TimeMedian([&] { voteopt::graph::AliasSampler sampler(graph); }, 3,
                    15, kBudgetSeconds)),
      "ms");

  // dyn: the commit pipeline on the workload's own commit stream, step by
  // step as Engine::HandleMutate runs it: patch, repair, journal, publish.
  api::StatePool pool(6);
  MutationSource source(graph, seed);
  const std::string journal = work_dir + "/layers" + dyn::kMutationLogSuffix;
  std::vector<double> patch_s, repair_s, publish_s, journal_bytes;
  double journal_first_s = 0.0, journal_last_s = 0.0;
  uint64_t repaired = 0, walks_total = 0;
  dyn::MutationLog log;
  const uint64_t base_fingerprint = api::BundleFingerprint(dataset);
  for (uint32_t c = 0; c < config.traced_commits; ++c) {
    const std::vector<dyn::Mutation> batch = source.Next();
    Clock::time_point t = Clock::now();
    auto patched = dyn::ApplyMutations(entry->dataset.influence,
                                       entry->dataset.state, batch);
    patch_s.push_back(SecondsSince(t));
    if (!patched.ok()) return patched.status();

    auto next = std::make_shared<api::DatasetEntry>();
    next->name = entry->name;
    next->dataset.name = entry->dataset.name;
    next->dataset.counts = entry->dataset.counts;
    next->dataset.default_target = entry->dataset.default_target;
    next->dataset.influence = std::move(patched->graph);
    next->dataset.state = std::move(patched->state);
    next->meta = entry->meta;

    dyn::RepairOptions repair;
    repair.num_threads = kBuildThreads;
    if (config.ooc) {
      repair.block_budget_bytes = OocBlockBudget(next->dataset.influence);
      repair.ooc_scratch_prefix = work_dir + "/layers_repair";
    }
    t = Clock::now();
    auto outcome = dyn::SketchRepairer::Repair(
        *entry->sketch, next->dataset.influence,
        next->dataset.state.campaigns[target], entry->meta,
        patched->dirty_nodes, entry->alias.get(), repair);
    repair_s.push_back(SecondsSince(t));
    if (!outcome.ok()) return outcome.status();
    repaired += outcome->stats.walks_repaired;
    walks_total += outcome->stats.walks_total;
    next->sketch =
        std::shared_ptr<const core::WalkSet>(std::move(outcome->sketch));
    next->alias = std::move(outcome->alias);
    next->model =
        std::make_unique<voteopt::opinion::FJModel>(next->dataset.influence);
    next->meta.bundle_fingerprint = api::BundleFingerprint(next->dataset);

    log.Append(std::span<const dyn::Mutation>(batch));
    const bool first = c == 0;
    const bool last = c + 1 == config.traced_commits;
    const double save_s = TimeMedian(
        [&] {
          (void)dyn::SaveMutationLog(journal, base_fingerprint,
                                     log.mutations());
        },
        first || last ? 5 : 1, first || last ? 5 : 1, 0.0);
    if (first) journal_first_s = save_s;
    if (last) journal_last_s = save_s;
    journal_bytes.push_back(
        static_cast<double>(std::filesystem::file_size(journal)));

    // Publish: the registry swap, the worker-state eviction, and the
    // predecessor's release, all of which a commit pays before answering.
    t = Clock::now();
    {
      auto replaced = registry.Replace(next);
      if (!replaced.ok()) return replaced.status();
      pool.Evict(next->name, (*replaced)->generation);
      entry = registry.Resolve("layers").value();
      next.reset();
    }
    publish_s.push_back(SecondsSince(t));
  }
  double bytes_sum = 0.0;
  for (const double b : journal_bytes) bytes_sum += b;
  add("dyn.patch_ms", Ms(Median(patch_s)), "ms");
  add("dyn.repair_ms", Ms(Median(repair_s)), "ms");
  add("dyn.journal_first_ms", Ms(journal_first_s), "ms");
  add("dyn.journal_last_ms", Ms(journal_last_s), "ms");
  add("dyn.journal_bytes_per_commit",
      bytes_sum / static_cast<double>(journal_bytes.size()), "bytes");
  add("dyn.publish_ms", Ms(Median(publish_s)), "ms");
  add("dyn.walks_repaired_ratio",
      static_cast<double>(repaired) / static_cast<double>(walks_total),
      "ratio");
  return Status::OK();
}

}  // namespace perfbench
