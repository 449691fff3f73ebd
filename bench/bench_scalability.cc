// Paper Fig. 17 (Twitter Social Distancing): seed-finding time and memory
// vs graph size, on node-induced subsamples of the full graph (the paper
// uses 0.5M..3M nodes; here fractions of the synthetic analog).
//
// Shapes to reproduce: RW and RS scale near-linearly in n; the paper's DM
// (greedy with full matrix-vector re-propagation per marginal gain, the
// "DM-naive" column) grows polynomially and dominates. Our optimized DM
// (CELF + sparse delta propagation, the "DM" column) shifts that crossover
// far to the right — an engineering improvement over the paper, quantified
// here and in bench_ablations.
#include "bench_common.h"

#include <algorithm>
#include <fstream>
#include <queue>
#include <sstream>
#include <tuple>

#include "core/sketch.h"
#include "sketch_ooc/ooc_builder.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace voteopt;
using namespace voteopt::bench;

int main(int argc, char** argv) {
  Options options(argc, argv);
  BenchEnv env = MakeEnv(options, "tw-dist", /*default_scale=*/0.3);
  const uint32_t k = static_cast<uint32_t>(options.GetInt("k", 25));
  const baselines::MethodOptions method_options =
      DefaultMethodOptions(options);
  const auto fractions =
      options.GetDoubleList("fractions", {0.17, 0.33, 0.5, 0.67, 0.83, 1.0});
  const bool include_dm = options.GetBool("dm", true);
  const bool include_naive = options.GetBool("dm_naive", true);

  // The paper's DM: CELF over marginal gains computed by full t-step
  // re-propagation (O(t m) per evaluation, no sparse deltas).
  auto naive_dm_seconds = [&](const voting::ScoreEvaluator& ev,
                              uint32_t budget) {
    WallTimer timer;
    const uint32_t nodes = ev.num_users();
    std::vector<graph::NodeId> seeds;
    double base = ev.EvaluateSeeds(seeds);
    using Entry = std::tuple<double, graph::NodeId, uint32_t>;
    auto cmp = [](const Entry& a, const Entry& b) {
      if (std::get<0>(a) != std::get<0>(b)) {
        return std::get<0>(a) < std::get<0>(b);
      }
      return std::get<1>(a) > std::get<1>(b);
    };
    auto gain_of = [&](graph::NodeId w) {
      auto with = seeds;
      with.push_back(w);
      return ev.EvaluateSeeds(with) - base;
    };
    std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> queue(cmp);
    for (graph::NodeId v = 0; v < nodes; ++v) queue.emplace(gain_of(v), v, 0);
    std::vector<bool> chosen(nodes, false);
    while (seeds.size() < budget && !queue.empty()) {
      auto [gain, v, at] = queue.top();
      queue.pop();
      if (chosen[v]) continue;
      if (at == seeds.size()) {
        chosen[v] = true;
        seeds.push_back(v);
        base = ev.EvaluateSeeds(seeds);
      } else {
        queue.emplace(gain_of(v), v, static_cast<uint32_t>(seeds.size()));
      }
    }
    return timer.Seconds();
  };

  Table table({"n", "m", "DM-naive sec", "DM sec", "RW sec", "RS sec",
               "RW walk MB", "RS walk MB"});
  Rng rng(9);
  for (double fraction : fractions) {
    const uint32_t sub_n =
        std::max<uint32_t>(64, static_cast<uint32_t>(
                                   env.num_nodes() * fraction));
    const auto sample = rng.SampleWithoutReplacement(env.num_nodes(), sub_n);
    std::vector<graph::NodeId> keep(sample.begin(), sample.end());
    // Induced subgraph + restricted campaign state; re-normalize weights.
    graph::Graph sub = env.graph().InducedSubgraph(keep).NormalizedIncoming();
    opinion::MultiCampaignState state;
    state.campaigns.resize(env.dataset.state.num_candidates());
    for (uint32_t q = 0; q < state.campaigns.size(); ++q) {
      auto& c = state.campaigns[q];
      const auto& full = env.dataset.state.campaigns[q];
      c.initial_opinions.reserve(sub_n);
      c.stubbornness.reserve(sub_n);
      for (graph::NodeId v : keep) {
        c.initial_opinions.push_back(full.initial_opinions[v]);
        c.stubbornness.push_back(full.stubbornness[v]);
      }
    }
    opinion::FJModel model(sub);
    voting::ScoreEvaluator ev(model, state, env.dataset.default_target,
                              env.horizon, voting::ScoreSpec::Cumulative());
    const auto rw = baselines::SelectWithMethod(baselines::Method::kRW, ev, k,
                                                method_options);
    const auto rs = baselines::SelectWithMethod(baselines::Method::kRS, ev, k,
                                                method_options);
    double dm_seconds = -1.0;
    if (include_dm) {
      dm_seconds = baselines::SelectWithMethod(baselines::Method::kDM, ev, k,
                                               method_options)
                       .seconds;
    }
    double naive_seconds = -1.0;
    if (include_naive) naive_seconds = naive_dm_seconds(ev, k);
    table.Add(sub_n, sub.num_edges(),
              naive_seconds < 0 ? "-" : Table::Num(naive_seconds, 3),
              dm_seconds < 0 ? "-" : Table::Num(dm_seconds, 3),
              Table::Num(rw.seconds, 3), Table::Num(rs.seconds, 3),
              Table::Num(rw.diagnostics.at("walk_memory_mb"), 2),
              Table::Num(rs.diagnostics.at("walk_memory_mb"), 2));
  }
  Emit(env, "Fig. 17: time and memory vs graph size (cumulative, k=" +
                std::to_string(k) + ")",
       table);

  // --- Sketch engine scaling: the sharded builder across thread counts ---
  // Times BuildSketchSet on the full bench graph at several thread counts.
  //   --sketch_bench=0       skip this section
  //   --sketch_theta=<int>   walks per build (default 2^19)
  //   --sketch_threads=a,b   thread counts for the sharded builder
  //   --json_out=<path>      also dump the rows as JSON (BENCH_sketch.json)
  if (options.GetBool("sketch_bench", true)) {
    const auto theta =
        static_cast<uint64_t>(options.GetInt("sketch_theta", 1 << 19));
    const auto thread_counts =
        options.GetIntList("sketch_threads", {1, 2, 4, 8});
    voting::ScoreEvaluator ev =
        env.MakeEvaluator(voting::ScoreSpec::Cumulative());

    Table sketch_table({"engine", "threads", "theta", "sec", "walks/sec"});
    std::ostringstream json_rows;
    auto record = [&](const std::string& engine, uint32_t threads,
                      double sec) {
      const double rate = static_cast<double>(theta) / sec;
      sketch_table.Add(engine, threads, theta, Table::Num(sec, 3),
                       Table::Num(rate, 0));
      if (json_rows.tellp() > 0) json_rows << ",\n";
      json_rows << "    {\"engine\": \"" << engine
                << "\", \"threads\": " << threads << ", \"seconds\": " << sec
                << ", \"walks_per_sec\": " << rate << "}";
    };

    for (const int64_t threads : thread_counts) {
      core::SketchBuildOptions build_options;
      build_options.num_threads = static_cast<uint32_t>(threads);
      WallTimer timer;
      auto walks = core::BuildSketchSet(ev, theta, /*master_seed=*/7,
                                        build_options);
      record("sharded", static_cast<uint32_t>(threads), timer.Seconds());
    }
    Emit(env, "Sketch engine: sharded walk generation (theta=" +
                  std::to_string(theta) + ")",
         sketch_table);

    // --- Out-of-core tier: a separate, larger instance built through the
    // block-sharded engine (sketch_ooc/) AND through the in-memory builder
    // on the same graph, seed and theta, so the two schedulers' rates are
    // comparable; answers_match is byte equality of the two WalkSets.
    // Defaults to the paper-scale n = 10^6 tw-dist analog; CI runs it
    // smaller via flags.
    //   --ooc_bench=0            skip the tier
    //   --ooc_nodes=<int>        instance size (default 1,000,000)
    //   --ooc_theta=<int>        walks (default 2^20)
    //   --ooc_block_budget_kb=N  per-block budget (default 8192, i.e.
    //                            8 MiB -> 6 blocks at n = 10^6)
    std::ostringstream ooc_json;
    if (options.GetBool("ooc_bench", true)) {
      const auto ooc_nodes =
          static_cast<uint32_t>(options.GetInt("ooc_nodes", 1000000));
      const auto ooc_theta =
          static_cast<uint64_t>(options.GetInt("ooc_theta", 1 << 20));
      const uint64_t budget_bytes =
          static_cast<uint64_t>(options.GetInt("ooc_block_budget_kb", 8192))
          << 10;
      const double ooc_scale =
          static_cast<double>(ooc_nodes) /
          datasets::DefaultNumNodes(datasets::DatasetName::kTwitterDistancing);
      datasets::Dataset big = datasets::MakeDataset(
          datasets::DatasetName::kTwitterDistancing, ooc_scale, env.seed,
          env.mu);
      const auto& campaign = big.state.campaigns[big.default_target];
      constexpr uint64_t kOocMasterSeed = 7;

      sketch_ooc::OocBuildStats stats;
      WallTimer timer;
      auto walks = sketch_ooc::BuildSketchSetOocFromGraph(
          big.influence, campaign, env.horizon, ooc_theta, kOocMasterSeed,
          budget_bytes, /*scratch_prefix=*/"", {}, &stats);
      const double ooc_seconds = timer.Seconds();
      if (!walks.ok()) {
        std::cerr << "ooc tier failed: " << walks.status().ToString() << "\n";
        return 1;
      }

      // The same sketch in memory, default thread count on both sides.
      opinion::FJModel big_model(big.influence);
      voting::ScoreEvaluator big_ev(big_model, big.state, big.default_target,
                                    env.horizon,
                                    voting::ScoreSpec::Cumulative());
      timer.Restart();
      const auto in_memory =
          core::BuildSketchSet(big_ev, ooc_theta, kOocMasterSeed, {});
      const double mem_seconds = timer.Seconds();

      const auto& a = (*walks)->frozen();
      const auto& b = in_memory->frozen();
      const bool answers_match =
          std::ranges::equal(a.nodes, b.nodes) &&
          std::ranges::equal(a.offsets, b.offsets) &&
          std::ranges::equal(a.starts, b.starts) &&
          std::ranges::equal(a.lambda, b.lambda) &&
          std::ranges::equal(a.start_weight, b.start_weight) &&
          std::ranges::equal(a.index_offsets, b.index_offsets) &&
          std::ranges::equal(
              a.index_entries, b.index_entries,
              [](const core::WalkSet::Posting& x,
                 const core::WalkSet::Posting& y) {
                return x.walk == y.walk && x.pos == y.pos;
              });

      const auto rate = [ooc_theta](double sec) {
        return static_cast<double>(ooc_theta) / sec;
      };
      Table ooc_table({"n", "m", "theta", "blocks", "ooc sec",
                       "ooc walks/sec", "in-memory sec",
                       "in-memory walks/sec", "boundary hops",
                       "answers_match"});
      ooc_table.Add(big.influence.num_nodes(), big.influence.num_edges(),
                    ooc_theta, stats.num_blocks, Table::Num(ooc_seconds, 3),
                    Table::Num(rate(ooc_seconds), 0),
                    Table::Num(mem_seconds, 3),
                    Table::Num(rate(mem_seconds), 0), stats.boundary_hops,
                    answers_match ? "true" : "false");
      Emit(env,
           "Out-of-core sketch tier vs in-memory on the same graph (tw-dist "
           "analog, block budget " +
               std::to_string(budget_bytes >> 10) + " KiB)",
           ooc_table);
      ooc_json << ",\n  \"ooc\": {\"n\": " << big.influence.num_nodes()
               << ", \"m\": " << big.influence.num_edges()
               << ", \"theta\": " << ooc_theta
               << ", \"blocks\": " << stats.num_blocks
               << ", \"block_budget_kb\": " << (budget_bytes >> 10)
               << ", \"seconds\": " << ooc_seconds
               << ", \"walks_per_sec\": " << rate(ooc_seconds)
               << ", \"in_memory_seconds\": " << mem_seconds
               << ", \"in_memory_walks_per_sec\": " << rate(mem_seconds)
               << ", \"boundary_hops\": " << stats.boundary_hops
               << ", \"answers_match\": " << (answers_match ? "true" : "false")
               << "}";
      if (!answers_match) {
        std::cerr << "ooc tier: the out-of-core sketch DIVERGED from the "
                     "in-memory one\n";
        return 1;
      }
    }

    if (options.Has("json_out")) {
      std::ofstream out(options.GetString("json_out", "BENCH_sketch.json"));
      out << "{\n  \"bench\": \"bench_scalability/sketch_engine\",\n"
          << "  \"dataset\": \"" << env.dataset.name
          << "\",\n  \"n\": " << env.num_nodes()
          << ",\n  \"m\": " << env.graph().num_edges()
          << ",\n  \"theta\": " << theta << ",\n  \"horizon\": "
          << env.horizon << ",\n  \"host\": " << HostMetadataJson()
          << ",\n  \"rows\": [\n" << json_rows.str() << "\n  ]"
          << ooc_json.str() << "\n}\n";
    }
  }
  return 0;
}
