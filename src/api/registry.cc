#include "api/registry.h"

#include <filesystem>
#include <utility>

#include "core/sketch.h"
#include "dyn/journal.h"
#include "dyn/repair.h"
#include "sketch_ooc/ooc_builder.h"
#include "store/format.h"
#include "util/timer.h"

namespace voteopt::api {

std::string EvaluatorSpecKey(const voting::ScoreSpec& spec) {
  std::string key = voting::ScoreKindName(spec.kind);
  key += "/p=" + std::to_string(spec.p);
  if (!spec.omega.empty()) {
    key += "/omega=" + std::to_string(store::Fnv1a64(
                           spec.omega.data(),
                           spec.omega.size() * sizeof(double)));
  }
  return key;
}

/// A regenerated bundle with the same node count but different
/// edges/opinions would otherwise silently serve wrong answers from a
/// stale sketch. (The bundle's default target is deliberately excluded:
/// the sketch pins its own target in SketchMeta.)
uint64_t BundleFingerprint(const datasets::Dataset& dataset) {
  std::vector<uint64_t> digests;
  auto add = [&digests](const void* data, size_t size) {
    digests.push_back(store::Fnv1a64(data, size));
  };
  const graph::Graph& g = dataset.influence;
  add(g.OutOffsets().data(), g.OutOffsets().size_bytes());
  add(g.OutTargets().data(), g.OutTargets().size_bytes());
  add(g.OutWeightsRaw().data(), g.OutWeightsRaw().size_bytes());
  add(g.InOffsets().data(), g.InOffsets().size_bytes());
  add(g.InSources().data(), g.InSources().size_bytes());
  add(g.InWeightsRaw().data(), g.InWeightsRaw().size_bytes());
  for (const opinion::Campaign& campaign : dataset.state.campaigns) {
    add(campaign.initial_opinions.data(),
        campaign.initial_opinions.size() * sizeof(double));
    add(campaign.stubbornness.data(),
        campaign.stubbornness.size() * sizeof(double));
  }
  return store::Fnv1a64(digests.data(), digests.size() * sizeof(uint64_t));
}

namespace {

/// The inline sketch build shared by Load's build fallback and Host: fills
/// the entry's meta/sketch/build_evaluator from the recipe. The evaluator's
/// horizon propagation is the expensive part, so it is retained on the
/// entry and seeds every worker state's LRU. When `block_budget_bytes > 0`
/// the walks are generated out of core (sketch_ooc/) — bit-identical to
/// the in-memory path by determinism ledger entry #7, so callers cannot
/// tell the difference except in peak memory.
Status BuildSketchInline(DatasetEntry* entry, uint64_t theta, uint32_t horizon,
                         uint32_t target, uint32_t num_threads,
                         uint64_t rng_seed, uint64_t fingerprint,
                         uint64_t block_budget_bytes,
                         obs::Registry* metrics) {
  if (target >= entry->dataset.state.num_candidates()) {
    return Status::InvalidArgument(
        "target candidate " + std::to_string(target) +
        " not in the dataset (r = " +
        std::to_string(entry->dataset.state.num_candidates()) + ")");
  }
  entry->meta.theta = theta;
  entry->meta.horizon = horizon;
  entry->meta.target = target;
  entry->meta.master_seed = rng_seed;
  entry->meta.bundle_fingerprint = fingerprint;
  const voting::ScoreSpec build_spec = voting::ScoreSpec::Cumulative();
  auto build_evaluator = std::make_shared<const voting::ScoreEvaluator>(
      *entry->model, entry->dataset.state, entry->meta.target,
      entry->meta.horizon, build_spec);
  WallTimer build_timer;
  if (block_budget_bytes > 0) {
    sketch_ooc::OocBuildOptions ooc_options;
    ooc_options.num_threads = num_threads;
    sketch_ooc::OocBuildStats ooc_stats;
    auto built = sketch_ooc::BuildSketchSetOocFromGraph(
        entry->dataset.influence, entry->dataset.state.campaigns[target],
        horizon, theta, rng_seed, block_budget_bytes,
        /*scratch_prefix=*/"", ooc_options, &ooc_stats);
    if (!built.ok()) return built.status();
    entry->sketch = std::move(built).value();
    if (metrics != nullptr) {
      metrics
          ->GetCounter("voteopt_ooc_block_loads_total", {},
                       "OOC sketch-build block loads (alias-table compiles "
                       "of a block's node range)")
          ->Increment(ooc_stats.block_loads);
      metrics
          ->GetCounter("voteopt_ooc_boundary_hops_total", {},
                       "OOC sketch-build walk suspensions at partition "
                       "boundaries")
          ->Increment(ooc_stats.boundary_hops);
      metrics
          ->GetGauge("voteopt_ooc_blocks", {{"dataset", entry->name}},
                     "Blocks of the last OOC sketch build for this dataset")
          ->Set(static_cast<double>(ooc_stats.num_blocks));
    }
  } else {
    core::SketchBuildOptions build_options;
    build_options.num_threads = num_threads;
    entry->sketch =
        core::BuildSketchSet(*build_evaluator, theta, rng_seed, build_options);
  }
  if (metrics != nullptr) {
    const double seconds = build_timer.Seconds();
    metrics
        ->GetCounter("voteopt_sketch_builds_total",
                     {{"mode", block_budget_bytes > 0 ? "ooc" : "inline"}},
                     "Inline sketch builds (load fallback or Host)")
        ->Increment();
    metrics
        ->GetGauge("voteopt_sketch_build_seconds",
                   {{"dataset", entry->name}},
                   "Wall seconds of this dataset's last inline sketch build")
        ->Set(seconds);
    metrics
        ->GetGauge("voteopt_sketch_build_walks_per_second",
                   {{"dataset", entry->name}},
                   "Walk-generation throughput of this dataset's last "
                   "inline sketch build")
        ->Set(seconds > 0 ? static_cast<double>(theta) / seconds : 0.0);
  }
  entry->sketch_built = true;
  entry->build_evaluator = std::move(build_evaluator);
  entry->build_evaluator_key = EvaluatorSpecKey(build_spec);
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<const DatasetEntry>> DatasetRegistry::Load(
    const std::string& name, const DatasetLoadOptions& options) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  {
    MutexLock lock(&mutex_);
    if (entries_.count(name) != 0) {
      return Status::FailedPrecondition(
          "dataset '" + name + "' is already loaded — unload it first");
    }
  }

  // The expensive part — bundle I/O, sketch load or build — runs outside
  // the lock so concurrent queries against other datasets keep flowing.
  auto entry = std::make_shared<DatasetEntry>();
  entry->name = name;
  auto bundle = datasets::LoadDatasetBundle(options.bundle_prefix);
  if (!bundle.ok()) return bundle.status();
  entry->dataset = std::move(bundle).value();
  entry->model = std::make_unique<opinion::FJModel>(entry->dataset.influence);

  const uint64_t fingerprint = BundleFingerprint(entry->dataset);
  const std::string sketch_path =
      options.sketch_path.empty()
          ? datasets::BundleSketchPath(options.bundle_prefix)
          : options.sketch_path;
  auto loaded = store::LoadSketch(sketch_path, options.sketch_load_mode);
  if (loaded.ok()) {
    entry->sketch =
        std::shared_ptr<const core::WalkSet>(std::move(loaded->walks));
    entry->meta = loaded->meta;
    if (entry->meta.bundle_fingerprint != 0 &&
        entry->meta.bundle_fingerprint != fingerprint) {
      return Status::FailedPrecondition(
          sketch_path +
          ": sketch was built from a different bundle (fingerprint "
          "mismatch) — rebuild it against the current data");
    }
  } else if (loaded.status().code() == Status::Code::kIOError &&
             options.build_theta > 0) {
    // No persisted sketch: fall back to the offline build, inline.
    if (Status st = BuildSketchInline(
            entry.get(), options.build_theta, options.build_horizon,
            entry->dataset.default_target, options.build_threads,
            options.rng_seed, fingerprint, options.block_budget_bytes,
            metrics_);
        !st.ok()) {
      return st;
    }
    if (options.save_built_sketch) {
      VOTEOPT_RETURN_IF_ERROR(
          store::SaveSketch(*entry->sketch, entry->meta, sketch_path));
    }
  } else {
    return loaded.status();
  }

  if (entry->sketch->num_nodes() != entry->dataset.influence.num_nodes()) {
    return Status::FailedPrecondition(
        sketch_path + ": sketch node universe disagrees with the bundle");
  }
  if (entry->meta.target >= entry->dataset.state.num_candidates()) {
    return Status::FailedPrecondition(
        sketch_path + ": sketch target candidate not in the bundle");
  }

  entry->bundle_prefix = options.bundle_prefix;
  entry->base_fingerprint = fingerprint;

  // Crash recovery for dynamic graphs: a committed mutation journal next
  // to the bundle means the process last served a mutated instance —
  // replay it on top of the base bundle and repair the sketch so the
  // hosted entry is bit-identical to the pre-crash one (ledger entry 10).
  const std::string journal_path =
      options.bundle_prefix + dyn::kMutationLogSuffix;
  if (std::filesystem::exists(journal_path)) {
    auto journal = dyn::LoadMutationLog(journal_path);
    if (!journal.ok()) return journal.status();
    if (journal->base_fingerprint != fingerprint) {
      return Status::FailedPrecondition(
          journal_path +
          ": mutation journal was recorded against a different base bundle "
          "(fingerprint mismatch) — remove it or restore the bundle");
    }
    if (!journal->mutations.empty()) {
      auto patched = dyn::ApplyMutations(entry->dataset.influence,
                                         entry->dataset.state,
                                         journal->mutations);
      if (!patched.ok()) return patched.status();
      // Install the patched instance BEFORE repairing: the repair's alias
      // tables bind to the graph object they are built over, so that graph
      // must already sit in its published home, not in a local about to be
      // moved from.
      entry->dataset.influence = std::move(patched->graph);
      entry->dataset.state = std::move(patched->state);
      if (!patched->dirty_nodes.empty()) {
        // Replay repairs the way live commits do: out of core when the
        // load is budgeted, so the entry keeps no whole-graph alias tables.
        dyn::RepairOptions repair_options;
        repair_options.num_threads = options.build_threads;
        repair_options.block_budget_bytes = options.block_budget_bytes;
        auto repaired = dyn::SketchRepairer::Repair(
            *entry->sketch, entry->dataset.influence,
            entry->dataset.state.campaigns[entry->meta.target], entry->meta,
            patched->dirty_nodes, /*base_alias=*/nullptr, repair_options);
        if (!repaired.ok()) return repaired.status();
        entry->sketch = std::shared_ptr<const core::WalkSet>(
            std::move(repaired->sketch));
        entry->alias = std::move(repaired->alias);
      }
      entry->model =
          std::make_unique<opinion::FJModel>(entry->dataset.influence);
      // The whole journal folds once onto the base instance's fingerprint:
      // the value the live commits reached by folding batch after batch.
      entry->meta.bundle_fingerprint = dyn::FoldMutations(
          entry->meta.bundle_fingerprint, journal->mutations);
      // The retained build evaluator propagated opinions over the BASE
      // instance; dropping it is correct (workers rebuild on demand),
      // keeping it would be a stale-answer bug.
      entry->build_evaluator = nullptr;
      entry->build_evaluator_key.clear();
      entry->mutation_log.Append(std::span<const dyn::Mutation>(
          journal->mutations));
    }
  }

  return Publish(std::move(entry));
}

Result<std::shared_ptr<const DatasetEntry>> DatasetRegistry::Host(
    const std::string& name, datasets::Dataset dataset,
    const HostOptions& options) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  if (options.theta == 0) {
    return Status::InvalidArgument("hosting requires theta > 0 sketch walks");
  }
  auto entry = std::make_shared<DatasetEntry>();
  entry->name = name;
  entry->dataset = std::move(dataset);
  entry->model = std::make_unique<opinion::FJModel>(entry->dataset.influence);
  const uint32_t target =
      options.target.value_or(entry->dataset.default_target);
  if (Status st = BuildSketchInline(
          entry.get(), options.theta, options.horizon, target,
          options.num_threads, options.rng_seed,
          BundleFingerprint(entry->dataset), options.block_budget_bytes,
          metrics_);
      !st.ok()) {
    return st;
  }
  return Publish(std::move(entry));
}

Result<std::shared_ptr<const DatasetEntry>> DatasetRegistry::Publish(
    std::shared_ptr<DatasetEntry> entry) {
  MutexLock lock(&mutex_);
  if (entries_.count(entry->name) != 0) {  // also catches a lost Load race
    return Status::FailedPrecondition(
        "dataset '" + entry->name + "' is already loaded — unload it first");
  }
  entry->generation = next_generation_++;
  entries_[entry->name] = entry;
  if (metrics_ != nullptr) {
    metrics_
        ->GetCounter("voteopt_dataset_loads_total",
                     {{"source", entry->sketch_built ? "built" : "file"}},
                     "Datasets published into the registry, by sketch "
                     "provenance (file = persisted sketch, built = inline "
                     "build incl. Host)")
        ->Increment();
    metrics_
        ->GetGauge("voteopt_datasets_hosted", {},
                   "Datasets currently hosted by the registry")
        ->Set(static_cast<double>(entries_.size()));
    metrics_
        ->GetGauge("voteopt_dataset_generation", {{"dataset", entry->name}},
                   "Generation stamp of this dataset's current entry "
                   "(bumps on every re-load under the same name)")
        ->Set(static_cast<double>(entry->generation));
  }
  return std::shared_ptr<const DatasetEntry>(entry);
}

Result<std::shared_ptr<const DatasetEntry>> DatasetRegistry::Replace(
    std::shared_ptr<DatasetEntry> entry) {
  MutexLock lock(&mutex_);
  auto it = entries_.find(entry->name);
  if (it == entries_.end()) {
    return Status::NotFound("dataset '" + entry->name +
                            "' is not loaded (unloaded mid-mutation?)");
  }
  std::shared_ptr<const DatasetEntry> replaced = std::move(it->second);
  entry->generation = next_generation_++;
  it->second = entry;
  if (metrics_ != nullptr) {
    metrics_
        ->GetGauge("voteopt_dataset_generation", {{"dataset", entry->name}},
                   "Generation stamp of this dataset's current entry "
                   "(bumps on every re-load under the same name)")
        ->Set(static_cast<double>(entry->generation));
  }
  return replaced;
}

Result<std::shared_ptr<const DatasetEntry>> DatasetRegistry::Unload(
    const std::string& name) {
  MutexLock lock(&mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("dataset '" + name + "' is not loaded");
  }
  std::shared_ptr<const DatasetEntry> removed = std::move(it->second);
  entries_.erase(it);
  if (metrics_ != nullptr) {
    metrics_
        ->GetCounter("voteopt_dataset_unloads_total", {},
                     "Datasets removed from the registry")
        ->Increment();
    metrics_
        ->GetGauge("voteopt_datasets_hosted", {},
                   "Datasets currently hosted by the registry")
        ->Set(static_cast<double>(entries_.size()));
  }
  return removed;
}

Result<std::shared_ptr<const DatasetEntry>> DatasetRegistry::Resolve(
    const std::string& name) const {
  MutexLock lock(&mutex_);
  if (name.empty()) {
    if (entries_.size() == 1) return entries_.begin()->second;
    return entries_.empty()
               ? Status::NotFound("no dataset is loaded")
               : Status::InvalidArgument(
                     "several datasets are loaded — name one in 'dataset'");
  }
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("dataset '" + name + "' is not loaded");
  }
  return it->second;
}

std::vector<std::shared_ptr<const DatasetEntry>> DatasetRegistry::List()
    const {
  MutexLock lock(&mutex_);
  std::vector<std::shared_ptr<const DatasetEntry>> entries;
  entries.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) entries.push_back(entry);
  return entries;  // std::map iterates name-sorted
}

size_t DatasetRegistry::size() const {
  MutexLock lock(&mutex_);
  return entries_.size();
}

}  // namespace voteopt::api
