#include "dyn/repair.h"

#include <algorithm>
#include <string>
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
  // whose trajectory contains it. Sorted and deduplicated, the union is
  // the ascending walk order the regeneration and the splice below use.
  const uint64_t theta = base.num_walks();
  std::vector<uint64_t> dirty_indices;
  for (graph::NodeId v : dirty_nodes) {
    for (const core::WalkSet::Posting& p : base.PostingsOf(v)) {
      dirty_indices.push_back(p.walk);
    }
  }
  std::sort(dirty_indices.begin(), dirty_indices.end());
  dirty_indices.erase(std::unique(dirty_indices.begin(), dirty_indices.end()),
                      dirty_indices.end());

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

  // A regenerated walk keeps its start: the first draw of walk j's stream
  // picks it before any graph read. A mismatch means meta.master_seed did
  // not build `base`, and splicing would pair the base's starts, lambda and
  // weights with walks that begin elsewhere.
  uint64_t first_node = 0;
  for (size_t i = 0; i < dirty_indices.size(); ++i) {
    const uint32_t j = static_cast<uint32_t>(dirty_indices[i]);
    if (regen.nodes[first_node] != base.StartOf(j)) {
      return Status::FailedPrecondition(
          "repair: regenerated walk " + std::to_string(j) +
          " starts at node " + std::to_string(regen.nodes[first_node]) +
          " but the sketch's walk " + std::to_string(j) + " starts at node " +
          std::to_string(base.StartOf(j)) +
          " — meta.master_seed did not build this sketch");
    }
    first_node += regen.lengths[i];
  }
  outcome.sketch = core::WalkSet::Splice(base, dirty_indices, regen);
  return outcome;
}

}  // namespace voteopt::dyn
