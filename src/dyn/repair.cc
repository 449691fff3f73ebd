#include "dyn/repair.h"

#include <utility>
#include <vector>

#include "core/sketch.h"
#include "core/walk_engine.h"
#include "sketch_ooc/ooc_builder.h"

namespace voteopt::dyn {

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
      sketch_ooc::OocBuildOptions ooc_options;
      ooc_options.num_threads = options.num_threads;
      VOTEOPT_RETURN_IF_ERROR(sketch_ooc::RegenerateWalksOocFromGraph(
          patched, campaign, meta.horizon, meta.master_seed, dirty_indices,
          options.block_budget_bytes, ooc_options, &regen));
    } else {
      // In-memory path: alias tables over the patched graph, rebuilt at row
      // granularity when the pre-mutation tables are available, feeding
      // the in-memory builder's own walk pool.
      std::shared_ptr<const graph::AliasSampler> alias =
          base_alias != nullptr
              ? std::make_shared<const graph::AliasSampler>(patched, *base_alias,
                                                            dirty_nodes)
              : std::make_shared<const graph::AliasSampler>(patched);
      const core::WalkEngine engine(patched, campaign, *alias);
      for (const core::WalkBuffer& unit : core::GenerateSketchWalks(
               engine, meta.horizon, meta.master_seed, dirty_indices.size(),
               dirty_indices, options.num_threads)) {
        regen.nodes.insert(regen.nodes.end(), unit.nodes.begin(),
                           unit.nodes.end());
        regen.lengths.insert(regen.lengths.end(), unit.lengths.begin(),
                             unit.lengths.end());
      }
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
