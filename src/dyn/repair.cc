#include "dyn/repair.h"

#include <algorithm>
#include <future>
#include <utility>
#include <vector>

#include "core/sketch.h"
#include "core/walk_engine.h"
#include "sketch_ooc/block_store.h"
#include "sketch_ooc/ooc_builder.h"
#include "sketch_ooc/partition.h"
#include "util/thread_pool.h"

namespace voteopt::dyn {
namespace {

/// Regenerates the listed walks against the patched in-memory graph,
/// appending to `out` in list order. Chunk-parallel; each walk is its own
/// RNG block (GenerateSeeded), so chunking never changes the bytes.
void RegenerateWalksInMemory(const graph::Graph& patched,
                             const opinion::Campaign& campaign,
                             const graph::AliasSampler& alias,
                             uint32_t horizon, uint64_t master_seed,
                             std::span<const uint64_t> walk_indices,
                             uint32_t num_threads, core::WalkBuffer* out) {
  core::WalkEngine engine(patched, campaign, alias);
  uint32_t threads =
      num_threads == 0 ? ThreadPool::DefaultThreadCount() : num_threads;
  threads = std::max<uint32_t>(threads, 1);
  const size_t chunk_size =
      threads > 1
          ? std::max<size_t>(64, walk_indices.size() / (threads * 4) + 1)
          : walk_indices.size();
  const size_t num_chunks =
      walk_indices.empty() ? 0 : (walk_indices.size() + chunk_size - 1) / chunk_size;

  std::vector<core::WalkBuffer> buffers(num_chunks);
  auto run_chunk = [&](size_t c) {
    const size_t begin = c * chunk_size;
    const size_t end = std::min(walk_indices.size(), begin + chunk_size);
    for (size_t i = begin; i < end; ++i) {
      engine.GenerateSeeded(walk_indices[i], 1, horizon, master_seed,
                            &buffers[c]);
    }
  };
  if (threads > 1 && num_chunks > 1) {
    ThreadPool pool(threads);
    std::vector<std::future<void>> done;
    done.reserve(num_chunks);
    for (size_t c = 0; c < num_chunks; ++c) {
      done.push_back(pool.Submit([&run_chunk, c] { run_chunk(c); }));
    }
    for (auto& f : done) f.get();
  } else {
    for (size_t c = 0; c < num_chunks; ++c) run_chunk(c);
  }
  // Merge in chunk order = walk-list order.
  for (core::WalkBuffer& buf : buffers) {
    out->nodes.insert(out->nodes.end(), buf.nodes.begin(), buf.nodes.end());
    out->lengths.insert(out->lengths.end(), buf.lengths.begin(),
                        buf.lengths.end());
  }
}

}  // namespace

Result<RepairOutcome> SketchRepairer::Repair(
    const core::WalkSet& base, const graph::Graph& patched,
    const opinion::Campaign& campaign, const store::SketchMeta& meta,
    std::span<const graph::NodeId> dirty_nodes,
    const graph::AliasSampler* base_alias, const RepairOptions& options) {
  const uint32_t n = patched.num_nodes();
  if (base.num_nodes() != n) {
    return Status::InvalidArgument(
        "repair: sketch and patched graph disagree on node count");
  }
  if (meta.theta != base.num_walks()) {
    return Status::InvalidArgument("repair: meta.theta != sketch walk count");
  }
  VOTEOPT_RETURN_IF_ERROR(campaign.Validate(n));
  for (graph::NodeId v : dirty_nodes) {
    if (v >= n) return Status::InvalidArgument("repair: dirty node out of range");
  }

  // Dirty-walk set: the inverted index maps each dirty node to every walk
  // whose trajectory contains it. Flags (not a set) keep the sweep O(theta)
  // and the resulting index list ascending — the deterministic order the
  // regeneration and reassembly below both use.
  const uint64_t theta = base.num_walks();
  std::vector<uint8_t> dirty_walk(theta, 0);
  for (graph::NodeId v : dirty_nodes) {
    for (const core::WalkSet::Posting& p : base.PostingsOf(v)) {
      dirty_walk[p.walk] = 1;
    }
  }
  std::vector<uint64_t> dirty_indices;
  for (uint64_t j = 0; j < theta; ++j) {
    if (dirty_walk[j]) dirty_indices.push_back(j);
  }

  RepairOutcome outcome;
  outcome.stats.walks_total = theta;
  outcome.stats.walks_repaired = dirty_indices.size();
  outcome.stats.dirty_nodes = dirty_nodes.size();

  // Regenerate exactly the dirty walks from their seeded streams.
  core::WalkBuffer regen;
  if (!dirty_indices.empty()) {
    if (options.block_budget_bytes > 0) {
      // Block-aware path: cut the patched graph into blocks and replay the
      // dirty walks through the OOC scheduler (same machinery, same bytes).
      if (options.ooc_scratch_prefix.empty()) {
        return Status::InvalidArgument(
            "repair: block_budget_bytes set but no ooc_scratch_prefix");
      }
      auto plan = sketch_ooc::PlanByBudget(patched, options.block_budget_bytes);
      if (!plan.ok()) return plan.status();
      const uint32_t num_blocks = plan->num_blocks();
      if (Status st = sketch_ooc::WriteBlocks(patched, *plan,
                                              options.ooc_scratch_prefix);
          !st.ok()) {
        sketch_ooc::RemoveBlocks(options.ooc_scratch_prefix, num_blocks);
        return st;
      }
      auto blocks = sketch_ooc::BlockSet::Open(options.ooc_scratch_prefix);
      if (!blocks.ok()) {
        sketch_ooc::RemoveBlocks(options.ooc_scratch_prefix, num_blocks);
        return blocks.status();
      }
      sketch_ooc::OocBuildOptions ooc_options;
      ooc_options.num_threads = options.num_threads;
      Status regenerated = sketch_ooc::RegenerateWalksOoc(
          *blocks, campaign, meta.horizon, meta.master_seed, dirty_indices,
          ooc_options, &regen);
      sketch_ooc::RemoveBlocks(options.ooc_scratch_prefix, num_blocks);
      if (!regenerated.ok()) return regenerated;
    } else {
      // In-memory path: alias tables over the patched graph, rebuilt at row
      // granularity when the pre-mutation tables are available.
      std::shared_ptr<const graph::AliasSampler> alias =
          base_alias != nullptr
              ? std::make_shared<const graph::AliasSampler>(patched, *base_alias,
                                                            dirty_nodes)
              : std::make_shared<const graph::AliasSampler>(patched);
      RegenerateWalksInMemory(patched, campaign, *alias, meta.horizon,
                              meta.master_seed, dirty_indices,
                              options.num_threads, &regen);
      outcome.alias = std::move(alias);
    }
  } else if (options.block_budget_bytes == 0 && base_alias != nullptr) {
    // No dirty walks (rare: mutated nodes unvisited by every walk) — the
    // tables still must track the patched rows for the NEXT repair.
    outcome.alias = std::make_shared<const graph::AliasSampler>(
        patched, *base_alias, dirty_nodes);
  }

  // Reassemble the full sketch in walk-index order: clean walks splice
  // their bytes from the base's frozen layer, dirty walks take the next
  // regenerated row. One AddWalks + Finalize + ApplySketchWeights — the
  // exact construction sequence of both from-scratch builders, which is
  // what makes bit-identity hold by construction rather than by audit.
  const core::WalkSet::Frozen& frozen = base.frozen();
  std::vector<uint64_t> regen_offsets(regen.lengths.size() + 1, 0);
  for (size_t i = 0; i < regen.lengths.size(); ++i) {
    regen_offsets[i + 1] = regen_offsets[i] + regen.lengths[i];
  }

  core::WalkBuffer assembled;
  assembled.lengths.reserve(theta);
  uint64_t clean_nodes = 0;
  for (uint64_t j = 0; j < theta; ++j) {
    if (!dirty_walk[j]) clean_nodes += frozen.offsets[j + 1] - frozen.offsets[j];
  }
  assembled.nodes.reserve(clean_nodes + regen.nodes.size());
  size_t next_regen = 0;
  for (uint64_t j = 0; j < theta; ++j) {
    if (dirty_walk[j]) {
      const uint64_t begin = regen_offsets[next_regen];
      const uint64_t len = regen.lengths[next_regen];
      assembled.nodes.insert(assembled.nodes.end(),
                             regen.nodes.begin() + begin,
                             regen.nodes.begin() + begin + len);
      assembled.lengths.push_back(static_cast<uint32_t>(len));
      ++next_regen;
    } else {
      const uint64_t begin = frozen.offsets[j];
      const uint64_t len = frozen.offsets[j + 1] - begin;
      assembled.nodes.insert(assembled.nodes.end(),
                             frozen.nodes.begin() + begin,
                             frozen.nodes.begin() + begin + len);
      assembled.lengths.push_back(static_cast<uint32_t>(len));
    }
  }

  auto repaired = std::make_unique<core::WalkSet>(n);
  repaired->AddWalks(assembled);
  repaired->Finalize(campaign.initial_opinions);
  core::ApplySketchWeights(repaired.get(), n, theta);
  outcome.sketch = std::move(repaired);
  return outcome;
}

}  // namespace voteopt::dyn
