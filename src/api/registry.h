// DatasetRegistry: the multi-tenant heart of the query engine. Each entry
// hosts one immutable problem instance — dataset bundle + diffusion model +
// frozen sketch — under a runtime-chosen name, so a single process serves
// several campaigns (or several model variants of one campaign, cf. the
// varying-susceptibility line of work) side by side, and datasets can be
// loaded and evicted while queries are in flight via the protocol's
// load / unload / list verbs. Embedded callers can also publish a dataset
// they already hold in memory (Host), skipping disk entirely.
//
// Entries are published as shared_ptr<const DatasetEntry>: a query resolves
// its dataset name to an entry once and holds the shared_ptr for the
// request's duration, so Unload never pulls data out from under an in-flight
// query — the entry (and the mmap behind its sketch) is freed when the last
// reference drops. The registry itself is a small mutex-guarded map;
// everything reachable from a published entry is immutable (the threading
// contract is documented in docs/ARCHITECTURE.md).
#ifndef VOTEOPT_API_REGISTRY_H_
#define VOTEOPT_API_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/walk_set.h"
#include "datasets/io.h"
#include "datasets/synthetic.h"
#include "dyn/mutation.h"
#include "graph/alias_table.h"
#include "obs/metrics.h"
#include "opinion/fj_model.h"
#include "store/sketch_store.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "voting/evaluator.h"

namespace voteopt::api {

/// Canonical cache key for a voting rule (omega is hashed; two positional
/// rules with different weights must not share an evaluator).
std::string EvaluatorSpecKey(const voting::ScoreSpec& spec);

/// Content fingerprint of a base bundle: every CSR array of the influence
/// graph plus every campaign's opinions and stubbornness. Load computes it
/// once and checks it there, the one place a fingerprint is checked: it
/// binds persisted sketches (SketchMeta::bundle_fingerprint) and mutation
/// journals (dyn/journal.h) to their bundle. Mutated instances are never
/// rehashed; their fingerprint folds the journal onto the base's
/// (dyn::FoldMutations).
uint64_t BundleFingerprint(const datasets::Dataset& dataset);

/// How to materialize one dataset: where the bundle lives and what to do
/// when its sketch member is missing.
struct DatasetLoadOptions {
  /// Dataset bundle prefix (graph + campaigns + meta; datasets/io.h).
  std::string bundle_prefix;
  /// Sketch store file; empty means `<bundle_prefix>.sketch`.
  std::string sketch_path;
  /// Map the sketch instead of copying it into RAM.
  store::SketchLoadMode sketch_load_mode = store::SketchLoadMode::kMmap;

  /// Fallback when the sketch file is missing: build this many walks
  /// (0 = fail instead of building).
  uint64_t build_theta = uint64_t{1} << 18;
  /// Horizon for a freshly built sketch (persisted files carry their own).
  uint32_t build_horizon = 20;
  /// Persist a freshly built sketch next to the bundle (written through
  /// a temp file and renamed into place, so concurrent loads of one
  /// bundle never leave a torn sketch).
  bool save_built_sketch = false;
  /// Sketch-builder threads (0 = one per hardware thread).
  uint32_t build_threads = 0;
  uint64_t rng_seed = 42;

  /// When > 0, a build fallback runs OUT OF CORE: the graph is partitioned
  /// into node-range blocks of at most this many estimated bytes
  /// (sketch_ooc/), whose alias tables are compiled one block at a time,
  /// and — by determinism ledger entry #7 — yields the exact WalkSet the
  /// in-memory builder would. Mutation commits and journal replay then
  /// repair out of core too. 0 keeps the in-memory sharded builder.
  uint64_t block_budget_bytes = 0;
  /// Ignored: out-of-core builds and repairs write no files.
  std::string ooc_scratch_prefix;
};

/// One hosted problem instance. Immutable once published by Load; shared
/// with every in-flight query through shared_ptr<const DatasetEntry>.
struct DatasetEntry {
  std::string name;
  /// Unique per successful Load. Pooled per-worker state is tagged with the
  /// generation it was built against, so state for an unloaded or re-loaded
  /// name is detected as stale and discarded instead of reused.
  uint64_t generation = 0;

  datasets::Dataset dataset;
  std::unique_ptr<opinion::FJModel> model;
  /// The frozen sketch layer. Never mutated after publication; queries run
  /// on per-worker WalkSet::ShareFrozen clones instead.
  std::shared_ptr<const core::WalkSet> sketch;
  /// The sketch recipe. Its bundle_fingerprint is the base bundle's
  /// content hash until the first commit; a mutated instance's is its
  /// predecessor's folded with the commit's journal records (live commits
  /// and replay fold the same records, so they agree). It names a lineage,
  /// not bytes, and nothing checks it against the instance.
  store::SketchMeta meta;
  bool sketch_built = false;  // Load had to build (no persisted file)

  /// The evaluator the sketch-build fallback had to construct anyway. Its
  /// horizon propagation is the expensive part, so it is kept (immutable,
  /// const-only methods — safe to share across workers) and seeds every
  /// QueryState's LRU under `build_evaluator_key` instead of being rebuilt
  /// once per worker. Null when the sketch was loaded from disk.
  std::shared_ptr<const voting::ScoreEvaluator> build_evaluator;
  std::string build_evaluator_key;

  // --- dynamic-graph state (src/dyn) --------------------------------------
  /// Bundle prefix the entry was loaded from; "" for hosted (in-memory)
  /// entries — then the mutation journal is not persisted.
  std::string bundle_prefix;
  /// BundleFingerprint of the on-disk base bundle, computed at Load: what
  /// the journal's meta pins and a replay checks. Unlike
  /// meta.bundle_fingerprint, which folds every commit, this never changes
  /// across mutations.
  uint64_t base_fingerprint = 0;
  /// Every committed mutation since the base bundle, in commit order.
  dyn::MutationLog mutation_log;
  /// Alias tables over the current influence graph, populated lazily by
  /// the first edge mutation so later repairs rebuild rows, not tables.
  /// Null until then (query paths never need it).
  std::shared_ptr<const graph::AliasSampler> alias;

  /// The target campaign's initial opinions — what each query's
  /// WalkSet::ResetValues rebuilds the dynamic truncation state from.
  const std::vector<double>& target_opinions() const {
    return dataset.state.campaigns[meta.target].initial_opinions;
  }
};

/// How to host an in-memory dataset (DatasetRegistry::Host): the sketch is
/// always built inline — there is no file to load — so these are the
/// build-recipe knobs of DatasetLoadOptions without the disk paths.
struct HostOptions {
  uint64_t theta = uint64_t{1} << 18;  // sketch walk count
  uint32_t horizon = 20;
  /// Target candidate the sketch is built for (and every query answers
  /// about). Defaults to the dataset's default_target.
  std::optional<uint32_t> target;
  /// Sketch-builder threads (0 = one per hardware thread).
  uint32_t num_threads = 0;
  uint64_t rng_seed = 42;

  /// When > 0, the inline build runs out of core under this per-block
  /// byte budget (see DatasetLoadOptions::block_budget_bytes); the
  /// resulting sketch is bit-identical either way.
  uint64_t block_budget_bytes = 0;
};

class DatasetRegistry {
 public:
  /// Loads a bundle (and its sketch — building one inline when the file is
  /// absent and `build_theta > 0`) and publishes it under `name`. Fails
  /// with a clean Status on any inconsistency — e.g. a sketch whose node
  /// universe, target, or bundle fingerprint disagrees with the bundle —
  /// and with FailedPrecondition when the name is already taken.
  Result<std::shared_ptr<const DatasetEntry>> Load(
      const std::string& name, const DatasetLoadOptions& options);

  /// Publishes a dataset the caller already holds in memory: builds the
  /// sketch inline (sharded builder, deterministic in `rng_seed` and
  /// independent of `num_threads`) and hosts it under `name` without
  /// touching disk — the embedded-caller analog of Load. The entry is
  /// indistinguishable from a loaded one to every query path.
  Result<std::shared_ptr<const DatasetEntry>> Host(
      const std::string& name, datasets::Dataset dataset,
      const HostOptions& options);

  /// Removes `name` and returns the removed entry (so the caller can evict
  /// dependent per-worker state by generation). In-flight queries holding
  /// the entry finish unharmed; its memory is freed when the last reference
  /// drops. NotFound when absent.
  Result<std::shared_ptr<const DatasetEntry>> Unload(const std::string& name);

  /// Atomically swaps the entry hosted under entry->name for `entry` (the
  /// commit step of a mutation): stamps a fresh generation and returns the
  /// REPLACED entry so the caller can evict per-worker state built against
  /// it. In-flight queries holding the old entry finish unharmed on the
  /// pre-mutation instance — exactly the Unload consistency story.
  /// NotFound when the name is not currently hosted (mutating and
  /// unloading race; the mutation loses).
  Result<std::shared_ptr<const DatasetEntry>> Replace(
      std::shared_ptr<DatasetEntry> entry);

  /// Resolves a query's dataset name. "" means "the sole hosted dataset" —
  /// a convenience for single-tenant deployments; an error when the
  /// registry hosts zero or several datasets.
  Result<std::shared_ptr<const DatasetEntry>> Resolve(
      const std::string& name) const;

  /// Every hosted entry, name-sorted.
  std::vector<std::shared_ptr<const DatasetEntry>> List() const;

  size_t size() const;

  /// Wires the registry's lifecycle metrics (loads/builds/unloads,
  /// hosted-dataset and generation gauges, sketch-build timing incl. the
  /// walks/s gauge and the OOC block counters) into `metrics`. Null (the
  /// default) disables instrumentation; `metrics` must outlive the
  /// registry. Set before concurrent use (api::Engine wires it at Open).
  void set_metrics(obs::Registry* metrics) { metrics_ = metrics; }

 private:
  /// Final step shared by Load and Host: generation-stamps the entry and
  /// inserts it under its name (FailedPrecondition when taken).
  Result<std::shared_ptr<const DatasetEntry>> Publish(
      std::shared_ptr<DatasetEntry> entry);

  mutable Mutex mutex_;
  std::map<std::string, std::shared_ptr<const DatasetEntry>> entries_
      GUARDED_BY(mutex_);
  uint64_t next_generation_ GUARDED_BY(mutex_) = 1;
  /// Deliberately unguarded: set once by set_metrics before concurrent
  /// use (api::Engine wires it at Open), read-only afterwards.
  obs::Registry* metrics_ = nullptr;
};

}  // namespace voteopt::api

#endif  // VOTEOPT_API_REGISTRY_H_
