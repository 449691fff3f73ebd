// Shared plumbing for the per-figure/table bench binaries: dataset + score
// parsing from --flags, evaluator construction, and uniform table output.
//
// Every binary accepts:
//   --dataset=dblp|yelp|tw-elec|tw-dist|tw-mask   (binary-specific default)
//   --scale=<double>    multiplier on the dataset's default node count
//   --seed=<uint64>     dataset RNG seed
//   --mu=<double>       edge-weight parameter (paper App. D, default 10)
//   --t=<int>           time horizon (paper default 20)
//   --threads=<int>     RS sketch-builder threads (1 = inline,
//                       0 = one per hardware thread)
//   --csv               emit CSV instead of an aligned table
// and prints the same rows/series the corresponding paper exhibit reports.
#ifndef VOTEOPT_BENCH_BENCH_COMMON_H_
#define VOTEOPT_BENCH_BENCH_COMMON_H_

#include <iostream>
#include <memory>
#include <string>

#include "baselines/selector_factory.h"
#include "datasets/synthetic.h"
#include "opinion/fj_model.h"
#include "util/options.h"
#include "util/table.h"
#include "voting/evaluator.h"

namespace voteopt::bench {

/// Parses the dataset short name; exits with a message on a bad value.
datasets::DatasetName ParseDatasetOrDie(const std::string& name);

/// Short name for bench labels ("yelp", "tw-mask", ...).
std::string DatasetShortName(datasets::DatasetName name);

/// Parses --score=cumulative|plurality|p-approval|positional|copeland into a
/// spec (uses --p and --omega_p for the approval variants).
voting::ScoreSpec ParseScoreSpec(const Options& options,
                                 const std::string& default_score,
                                 uint32_t num_candidates);

/// A fully materialized problem substrate for one bench run.
struct BenchEnv {
  datasets::Dataset dataset;
  std::unique_ptr<opinion::FJModel> model;
  uint32_t horizon = 20;
  bool csv = false;
  uint64_t seed = 1;
  double scale = 0.2;
  double mu = 10.0;

  const graph::Graph& graph() const { return dataset.influence; }
  uint32_t num_nodes() const { return dataset.influence.num_nodes(); }

  /// Builds the evaluator for a score spec (target = dataset default).
  voting::ScoreEvaluator MakeEvaluator(const voting::ScoreSpec& spec) const {
    return voting::ScoreEvaluator(*model, dataset.state,
                                  dataset.default_target, horizon, spec);
  }
};

/// Builds the environment from common flags.
BenchEnv MakeEnv(const Options& options, const std::string& default_dataset,
                 double default_scale = 0.2);

/// Prints the table honoring --csv, preceded by a header line describing
/// the experiment (skipped in CSV mode).
void Emit(const BenchEnv& env, const std::string& title, const Table& table);

/// Host/build metadata as a JSON object literal, e.g.
///   {"hardware_threads": 8, "build_type": "RelWithDebInfo",
///    "compiler": "gcc 12.2.0", "os": "linux", "pointer_bits": 64}
/// Embedded under the "host" key of every --json_out payload so BENCH_*.json
/// files recorded on different machines are comparable.
std::string HostMetadataJson();

/// Method options tuned for bench scale (caps that keep RW/RS memory sane).
baselines::MethodOptions DefaultMethodOptions(const Options& options);

/// Parses --methods=DM,RW,RS,... (default: all nine).
std::vector<baselines::Method> ParseMethods(const Options& options);

}  // namespace voteopt::bench

#endif  // VOTEOPT_BENCH_BENCH_COMMON_H_
