#include "sketch_ooc/ooc_builder.h"

#include <algorithm>
#include <future>
#include <utility>
#include <vector>

#include "core/sketch.h"
#include "core/walk_engine.h"
#include "graph/alias_table.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace voteopt::sketch_ooc {

namespace {

/// A suspended walk parked on a block queue. Carrying the Rng (4x uint64 +
/// a cached normal; trivially copyable) is what lets a walk resume on any
/// block, thread, and round with its stream intact.
struct WalkTask {
  uint64_t local;          // walk index within the wave
  graph::NodeId current;   // walk head; already recorded in the slab
  uint32_t steps_left;     // transitions the walk may still take
  Rng rng;
};

/// Where a walk that crossed a partition boundary was parked.
struct Moved {
  uint32_t dest_block;
  WalkTask task;
};

/// The shared wave/round scheduler: generates `count` walks whose global
/// sketch indices are `global_index(0) .. global_index(count - 1)`, calling
/// `emit(assembled)` once per wave with the wave's walks in list order.
/// BuildSketchSetOoc instantiates it with the identity mapping over
/// 0..theta-1; RegenerateWalksOocFromGraph with a dirty-walk index list.
/// Both produce per-walk bytes identical to the in-memory builder's: each
/// walk draws from its own SketchWalkRng stream, and WalkEngine::Advance
/// is the in-memory builder's step loop.
template <typename IndexFn, typename EmitFn>
void RunWalkWaves(const graph::Graph& graph, const PartitionPlan& plan,
                  const opinion::Campaign& campaign, uint32_t horizon,
                  uint64_t master_seed, uint64_t count,
                  const OocBuildOptions& options, OocBuildStats* local_stats,
                  IndexFn global_index, EmitFn emit) {
  const uint32_t n = graph.num_nodes();
  const uint32_t num_blocks = plan.num_blocks();
  local_stats->num_blocks = num_blocks;

  uint32_t threads = options.num_threads == 0
                         ? ThreadPool::DefaultThreadCount()
                         : options.num_threads;
  threads = std::max<uint32_t>(threads, 1);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  const uint64_t stride = static_cast<uint64_t>(horizon) + 1;

  std::vector<graph::NodeId> slab;
  std::vector<uint32_t> lengths;
  std::vector<std::vector<WalkTask>> queues(num_blocks);
  core::WalkBuffer assembled;

  for (uint64_t wave_begin = 0; wave_begin < count;
       wave_begin += kOocWaveWalks) {
    const uint64_t wave_count = std::min(kOocWaveWalks, count - wave_begin);
    ++local_stats->waves;
    slab.resize(wave_count * stride);
    lengths.assign(wave_count, 0);

    // Seed: walk j opens its own stream, draws its start, and parks on the
    // block owning that node.
    uint64_t remaining = wave_count;
    for (uint64_t local = 0; local < wave_count; ++local) {
      const auto [start, rng] = core::StartSketchWalk(
          master_seed, global_index(wave_begin + local), n);
      slab[local * stride] = start;
      lengths[local] = 1;
      if (horizon == 0) {
        --remaining;
        continue;
      }
      queues[plan.BlockOf(start)].push_back({local, start, horizon, rng});
    }

    // Rounds: sweep blocks in the fixed order 0..P-1, draining each queue
    // with at most one block resident at a time. Any processing order
    // yields the same slab bytes (per-walk streams), so the order is
    // chosen purely for locality: a walk crossing forward continues within
    // the same sweep.
    std::vector<WalkTask> active;
    while (remaining > 0) {
      ++local_stats->rounds;
      for (uint32_t b = 0; b < num_blocks; ++b) {
        if (queues[b].empty()) continue;
        // Loading a block compiles its range's alias tables from the
        // resident in-CSR; they live for this visit only.
        const graph::AliasSampler alias(graph, plan.bounds[b],
                                        plan.bounds[b + 1]);
        ++local_stats->block_loads;

        const core::WalkEngine engine(campaign, alias);
        active.swap(queues[b]);
        queues[b].clear();
        // Walks crossing back into b during this drain start a fresh batch
        // in queues[b]; they are picked up next sweep (self-loops within
        // the range continue inline and never enqueue).
        const size_t chunk_size =
            pool ? std::max<size_t>(256, active.size() / (threads * 4) + 1)
                 : active.size();
        const size_t num_chunks =
            (active.size() + chunk_size - 1) / chunk_size;
        std::vector<std::vector<Moved>> moved(num_chunks);
        std::vector<uint64_t> terminated(num_chunks, 0);
        auto run_chunk = [&](size_t c) {
          const size_t begin = c * chunk_size;
          const size_t end = std::min(active.size(), begin + chunk_size);
          for (size_t i = begin; i < end; ++i) {
            WalkTask task = active[i];
            graph::NodeId* row = slab.data() + task.local * stride;
            lengths[task.local] = static_cast<uint32_t>(
                engine.Advance(&task.current, &task.steps_left, &task.rng,
                               row + lengths[task.local]) -
                row);
            if (task.steps_left > 0) {
              moved[c].push_back({plan.BlockOf(task.current), task});
            } else {
              ++terminated[c];
            }
          }
        };
        if (pool && num_chunks > 1) {
          std::vector<std::future<void>> done;
          done.reserve(num_chunks);
          for (size_t c = 0; c < num_chunks; ++c) {
            done.push_back(pool->Submit([&run_chunk, c] { run_chunk(c); }));
          }
          for (auto& f : done) f.get();
        } else {
          for (size_t c = 0; c < num_chunks; ++c) run_chunk(c);
        }
        // Merge in chunk order (determinism of the stats and of queue
        // order; the walk bytes never depended on it).
        for (size_t c = 0; c < num_chunks; ++c) {
          for (const Moved& m : moved[c]) {
            queues[m.dest_block].push_back(m.task);
            ++local_stats->boundary_hops;
          }
          remaining -= terminated[c];
        }
        active.clear();
      }
    }

    // Reassemble the wave in walk-index order — the in-memory builder's
    // append order, hence bit-identity of the WalkSet.
    assembled.nodes.clear();
    assembled.lengths.clear();
    uint64_t total = 0;
    for (uint64_t local = 0; local < wave_count; ++local) total += lengths[local];
    assembled.nodes.reserve(total);
    assembled.lengths.reserve(wave_count);
    for (uint64_t local = 0; local < wave_count; ++local) {
      const graph::NodeId* row = slab.data() + local * stride;
      assembled.nodes.insert(assembled.nodes.end(), row, row + lengths[local]);
      assembled.lengths.push_back(lengths[local]);
    }
    emit(assembled);
  }
}

}  // namespace

Result<std::unique_ptr<core::WalkSet>> BuildSketchSetOoc(
    const graph::Graph& graph, const PartitionPlan& plan,
    const opinion::Campaign& campaign, uint32_t horizon, uint64_t theta,
    uint64_t master_seed, const OocBuildOptions& options,
    OocBuildStats* stats) {
  const uint32_t n = graph.num_nodes();
  VOTEOPT_RETURN_IF_ERROR(plan.Validate(n));
  VOTEOPT_RETURN_IF_ERROR(campaign.Validate(n));

  OocBuildStats local_stats;
  auto walks = std::make_unique<core::WalkSet>(n);
  RunWalkWaves(
      graph, plan, campaign, horizon, master_seed, theta, options,
      &local_stats, [](uint64_t i) { return i; },
      [&walks](const core::WalkBuffer& wave) { walks->AddWalks(wave); });

  walks->Finalize(campaign.initial_opinions);
  core::ApplySketchWeights(walks.get(), n, theta);
  if (stats) *stats = local_stats;
  return walks;
}

Result<std::unique_ptr<core::WalkSet>> BuildSketchSetOocFromGraph(
    const graph::Graph& graph, const opinion::Campaign& campaign,
    uint32_t horizon, uint64_t theta, uint64_t master_seed,
    uint64_t block_budget_bytes, const std::string& /*scratch_prefix*/,
    const OocBuildOptions& options, OocBuildStats* stats) {
  auto plan = PlanByBudget(graph, block_budget_bytes);
  if (!plan.ok()) return plan.status();
  return BuildSketchSetOoc(graph, *plan, campaign, horizon, theta,
                           master_seed, options, stats);
}

Status RegenerateWalksOocFromGraph(
    const graph::Graph& graph, const opinion::Campaign& campaign,
    uint32_t horizon, uint64_t master_seed,
    std::span<const uint64_t> walk_indices, uint64_t block_budget_bytes,
    const OocBuildOptions& options, core::WalkBuffer* out) {
  VOTEOPT_RETURN_IF_ERROR(campaign.Validate(graph.num_nodes()));
  auto plan = PlanByBudget(graph, block_budget_bytes);
  if (!plan.ok()) return plan.status();
  OocBuildStats stats;
  RunWalkWaves(
      graph, *plan, campaign, horizon, master_seed, walk_indices.size(),
      options, &stats, [walk_indices](uint64_t i) { return walk_indices[i]; },
      [out](const core::WalkBuffer& wave) {
        out->nodes.insert(out->nodes.end(), wave.nodes.begin(),
                          wave.nodes.end());
        out->lengths.insert(out->lengths.end(), wave.lengths.begin(),
                            wave.lengths.end());
      });
  return Status::OK();
}

}  // namespace voteopt::sketch_ooc
