// Dynamic-graph benchmark: incremental sketch repair vs rebuild from
// scratch under streaming churn.
//
// One base sketch is built over the bench dataset, then for each churn
// level (default 0.1% / 1% / 10% of edges mutated, half adds half
// deletes) the same patched graph is brought up to date two ways:
//
//   incremental — dyn::SketchRepairer: dirty walks from the inverted
//                 index, row-level alias rebuild, one-pass splice with a
//                 patched index;
//   rebuild     — core::BuildSketchSet over the patched graph.
//
// Both paths are seeded identically, so by determinism ledger entry #10
// their frozen layers must be byte-equal and they must select the SAME
// seeds at the same estimated score; the "answers_match" field records
// both checks and the binary fails if it ever comes back false. The
// headline is the speedup column: repair wins big at low churn and
// degrades toward rebuild cost as the dirty-walk fraction approaches one.
//
//   --theta=<N>     sketch walks (default 2^16)
//   --k=<N>         query budget for the answers_match check (default 25)
//   --threads=<N>   repair/build threads (0 = hardware)
//   --repeats=<N>   timings per path; the median is reported (default 3)
//   --json_out=<p>  dump BENCH_dyn.json
#include "bench_common.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <vector>

#include "core/estimated_greedy.h"
#include "core/sketch.h"
#include "dyn/mutation.h"
#include "dyn/repair.h"
#include "graph/alias_table.h"
#include "store/sketch_store.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

using namespace voteopt;
using namespace voteopt::bench;

namespace {

constexpr uint64_t kMasterSeed = 7;

// A directed edge u -> v not present in `graph`, walked deterministically
// from `salt` (the dyn test fixtures' non-edge finder).
dyn::Mutation AbsentEdgeAdd(const graph::Graph& graph, uint64_t salt) {
  const uint32_t n = graph.num_nodes();
  for (uint64_t step = 0; step < 65536; ++step) {
    const uint32_t u = static_cast<uint32_t>((salt + step * 7) % n);
    const uint32_t v = static_cast<uint32_t>((salt * 3 + step * 11 + 1) % n);
    if (u == v) continue;
    auto in = graph.InNeighbors(v);
    if (std::find(in.begin(), in.end(), u) == in.end()) {
      return dyn::Mutation::EdgeAdd(u, v, 1.0);
    }
  }
  std::cerr << "no absent edge found\n";
  std::exit(1);
}

// `count` churn mutations against `graph`: alternating adds (absent
// edges) and deletes (existing edges whose row keeps >= 2 entries), all
// valid when applied in order because adds and deletes never collide —
// deletes draw from the original edge set, adds from outside it.
std::vector<dyn::Mutation> MakeChurn(const graph::Graph& graph,
                                     uint64_t count, Rng* rng) {
  std::vector<dyn::Mutation> mutations;
  mutations.reserve(count);
  std::vector<std::pair<uint32_t, uint32_t>> deleted, added;
  auto fresh_add = [&] {
    for (;;) {
      const dyn::Mutation add = AbsentEdgeAdd(graph, rng->Next());
      const std::pair<uint32_t, uint32_t> key{add.u, add.v};
      if (std::find(added.begin(), added.end(), key) == added.end()) {
        added.push_back(key);
        return add;
      }
    }
  };
  while (mutations.size() < count) {
    if (mutations.size() % 2 == 0) {
      mutations.push_back(fresh_add());
    } else {
      bool found = false;
      for (int attempt = 0; attempt < 256 && !found; ++attempt) {
        const uint32_t v =
            static_cast<uint32_t>(rng->UniformInt(graph.num_nodes()));
        auto in = graph.InNeighbors(v);
        if (in.size() < 3) continue;
        const uint32_t u = in[rng->UniformInt(in.size())];
        const std::pair<uint32_t, uint32_t> key{u, v};
        if (std::find(deleted.begin(), deleted.end(), key) != deleted.end()) {
          continue;
        }
        deleted.push_back(key);
        mutations.push_back(dyn::Mutation::EdgeDel(u, v));
        found = true;
      }
      if (!found) mutations.push_back(fresh_add());
    }
  }
  return mutations;
}

template <typename T>
bool SameBytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

// Byte equality of every array of two frozen layers.
bool SameFrozenBytes(const core::WalkSet& a, const core::WalkSet& b) {
  const core::WalkSet::Frozen& fa = a.frozen();
  const core::WalkSet::Frozen& fb = b.frozen();
  return SameBytes(fa.nodes, fb.nodes) && SameBytes(fa.offsets, fb.offsets) &&
         SameBytes(fa.starts, fb.starts) && SameBytes(fa.lambda, fb.lambda) &&
         SameBytes(fa.start_weight, fb.start_weight) &&
         SameBytes(fa.index_offsets, fb.index_offsets) &&
         SameBytes(fa.index_entries, fb.index_entries);
}

}  // namespace

int main(int argc, char** argv) {
  Options options(argc, argv);
  BenchEnv env = MakeEnv(options, "tw-mask", /*default_scale=*/0.5);
  const auto theta = static_cast<uint64_t>(options.GetInt("theta", 1 << 16));
  const uint32_t k = static_cast<uint32_t>(options.GetInt("k", 25));
  const int repeats =
      std::max<int>(1, static_cast<int>(options.GetInt("repeats", 3)));
  core::SketchBuildOptions build_options;
  build_options.num_threads =
      static_cast<uint32_t>(options.GetInt("threads", 0));
  const double churns[3] = {0.001, 0.01, 0.10};

  const graph::Graph& base_graph = env.graph();
  const opinion::CandidateId target = env.dataset.default_target;
  voting::ScoreEvaluator base_ev =
      env.MakeEvaluator(voting::ScoreSpec::Cumulative());

  // The standing substrate a dynamic host amortizes across every commit:
  // the base sketch and its alias tables.
  WallTimer timer;
  auto base = core::BuildSketchSet(base_ev, theta, kMasterSeed, build_options);
  const double base_build_sec = timer.Seconds();
  timer.Restart();
  const graph::AliasSampler base_alias(base_graph);
  const double base_alias_sec = timer.Seconds();
  const store::SketchMeta meta{theta, env.horizon, target, kMasterSeed};

  struct Row {
    double churn = 0;
    uint64_t mutations = 0, dirty_nodes = 0, walks_repaired = 0;
    double repair_sec = 0, rebuild_sec = 0;
    bool answers_match = false;
  };
  std::vector<Row> rows;
  bool all_match = true;

  for (const double churn : churns) {
    Row row;
    row.churn = churn;
    row.mutations = std::max<uint64_t>(
        1, static_cast<uint64_t>(churn * base_graph.num_edges()));
    Rng rng(1000 + static_cast<uint64_t>(churn * 1e6));
    const std::vector<dyn::Mutation> mutations =
        MakeChurn(base_graph, row.mutations, &rng);
    auto patched =
        dyn::ApplyMutations(base_graph, env.dataset.state, mutations);
    if (!patched.ok()) {
      std::cerr << "patch failed: " << patched.status().ToString() << "\n";
      return 1;
    }
    row.dirty_nodes = patched->dirty_nodes.size();
    const opinion::Campaign& campaign = patched->state.campaigns[target];

    // --- incremental repair (median of N) -------------------------------
    dyn::RepairOptions repair_options;
    repair_options.num_threads = build_options.num_threads;
    std::unique_ptr<core::WalkSet> repaired;
    std::vector<double> repair_times;
    for (int trial = 0; trial < repeats; ++trial) {
      timer.Restart();
      auto outcome = dyn::SketchRepairer::Repair(
          *base, patched->graph, campaign, meta, patched->dirty_nodes,
          &base_alias, repair_options);
      repair_times.push_back(timer.Seconds());
      if (!outcome.ok()) {
        std::cerr << "repair failed: " << outcome.status().ToString() << "\n";
        return 1;
      }
      row.walks_repaired = outcome->stats.walks_repaired;
      repaired = std::move(outcome->sketch);
    }
    row.repair_sec = Quantile(repair_times, 0.5);

    // --- rebuild from scratch (median of N) -----------------------------
    opinion::FJModel patched_model(patched->graph);
    voting::ScoreEvaluator patched_ev(patched_model, patched->state, target,
                                      env.horizon,
                                      voting::ScoreSpec::Cumulative());
    std::unique_ptr<core::WalkSet> rebuilt;
    std::vector<double> rebuild_times;
    for (int trial = 0; trial < repeats; ++trial) {
      timer.Restart();
      rebuilt = core::BuildSketchSet(patched_ev, theta, kMasterSeed,
                                     build_options);
      rebuild_times.push_back(timer.Seconds());
    }
    row.rebuild_sec = Quantile(rebuild_times, 0.5);

    // --- the determinism gate -------------------------------------------
    // The repaired sketch is frozen-only: reset its values the way every
    // query does before selecting on it.
    const bool same_bytes = SameFrozenBytes(*repaired, *rebuilt);
    repaired->ResetValues(campaign.initial_opinions);
    const core::SelectionResult from_repair =
        core::EstimatedGreedySelect(patched_ev, k, repaired.get());
    const core::SelectionResult from_rebuild =
        core::EstimatedGreedySelect(patched_ev, k, rebuilt.get());
    row.answers_match = same_bytes && from_repair.seeds == from_rebuild.seeds &&
                        from_repair.score == from_rebuild.score;
    all_match = all_match && row.answers_match;
    rows.push_back(row);
  }

  Table table({"churn", "mutations", "dirty nodes", "walks repaired",
               "repair sec", "rebuild sec", "speedup", "answers match"});
  for (const Row& row : rows) {
    table.Add(Table::Num(row.churn * 100, 1) + "%",
              std::to_string(row.mutations), std::to_string(row.dirty_nodes),
              std::to_string(row.walks_repaired) + "/" +
                  std::to_string(theta),
              Table::Num(row.repair_sec, 4), Table::Num(row.rebuild_sec, 4),
              Table::Num(row.rebuild_sec / row.repair_sec, 2),
              row.answers_match ? "yes" : "NO");
  }
  Emit(env,
       "Dyn: incremental sketch repair vs rebuild-from-scratch under churn "
       "(theta=" + std::to_string(theta) + ", k=" + std::to_string(k) +
           ", base build " + Table::Num(base_build_sec, 3) + " s, alias " +
           Table::Num(base_alias_sec, 3) + " s)",
       table);

  if (options.Has("json_out")) {
    std::ofstream out(options.GetString("json_out", "BENCH_dyn.json"));
    out.precision(6);
    out << "{\n  \"bench\": \"bench_dyn\",\n"
        << "  \"dataset\": \"" << env.dataset.name << "\",\n"
        << "  \"n\": " << env.num_nodes()
        << ",\n  \"m\": " << base_graph.num_edges()
        << ",\n  \"theta\": " << theta << ",\n  \"k\": " << k
        << ",\n  \"horizon\": " << env.horizon
        << ",\n  \"repeats\": " << repeats
        << ",\n  \"base_build_sec\": " << base_build_sec
        << ",\n  \"base_alias_sec\": " << base_alias_sec
        << ",\n  \"host\": " << HostMetadataJson() << ",\n  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      out << "    {\"churn\": " << row.churn
          << ", \"mutations\": " << row.mutations
          << ", \"dirty_nodes\": " << row.dirty_nodes
          << ", \"walks_repaired\": " << row.walks_repaired
          << ", \"walks_total\": " << theta
          << ", \"repair_sec\": " << row.repair_sec
          << ", \"rebuild_sec\": " << row.rebuild_sec
          << ", \"speedup\": " << row.rebuild_sec / row.repair_sec
          << ", \"answers_match\": "
          << (row.answers_match ? "true" : "false") << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"answers_match\": " << (all_match ? "true" : "false")
        << "\n}\n";
  }

  if (!all_match) {
    std::cerr << "ERROR: repaired sketch answered differently from rebuild\n";
    return 1;
  }
  return 0;
}
