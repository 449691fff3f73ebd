// Shared fixtures: the paper's running example (Fig. 1 / Table I) and
// small random problem instances for property tests.
//
// Running example (paper user i = node i-1):
//   edges:  1 -> 3 (w = 1/2),  2 -> 3 (w = 1/2),  3 -> 4 (w = 1)
//   c1: b0 = (0.40, 0.80, 0.60, 0.90), d = (1, 1, 0.5, 0.5)
//   c2: fully stubborn at (0.35, 0.75, 0.78, 0.90)  [the caption's t=1
//       values; c2 receives no seeds anywhere in the paper's example]
//
// This reproduces every Table I row exactly at t = 1:
//   {}      (0.40 0.80 0.60 0.75)  cum 2.55  plu 2  cope 0
//   {1}     (1.00 0.80 0.75 0.75)  cum 3.30  plu 2  cope 0
//   {2}     (0.40 1.00 0.65 0.75)  cum 2.80  plu 2  cope 0
//   {3}     (0.40 0.80 1.00 0.95)  cum 3.15  plu 4  cope 1
//   {4}     (0.40 0.80 0.60 1.00)  cum 2.80  plu 3  cope 1
//   {1,2}   (1.00 1.00 0.80 0.75)  cum 3.55  plu 3  cope 1
#ifndef VOTEOPT_TESTS_TEST_FIXTURES_H_
#define VOTEOPT_TESTS_TEST_FIXTURES_H_

#include <cassert>
#include <memory>
#include <vector>

#include "core/walk_set.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "opinion/fj_model.h"
#include "opinion/opinion_state.h"
#include "util/rng.h"

namespace voteopt::test {

struct PaperExample {
  graph::Graph graph;
  opinion::MultiCampaignState state;  // campaign 0 = c1 (target), 1 = c2
};

inline PaperExample MakePaperExample() {
  graph::GraphBuilder builder(4);
  builder.AddEdge(0, 2, 0.5);
  builder.AddEdge(1, 2, 0.5);
  builder.AddEdge(2, 3, 1.0);
  auto built = builder.Build();
  assert(built.ok());

  PaperExample ex;
  ex.graph = std::move(built).value();
  ex.state.campaigns.resize(2);
  ex.state.campaigns[0].initial_opinions = {0.40, 0.80, 0.60, 0.90};
  ex.state.campaigns[0].stubbornness = {1.0, 1.0, 0.5, 0.5};
  ex.state.campaigns[1].initial_opinions = {0.35, 0.75, 0.78, 0.90};
  ex.state.campaigns[1].stubbornness = {1.0, 1.0, 1.0, 1.0};
  return ex;
}

/// A random, column-stochastic multi-campaign instance for property tests.
struct RandomInstance {
  graph::Graph graph;
  opinion::MultiCampaignState state;
};

inline RandomInstance MakeRandomInstance(uint32_t num_nodes,
                                         uint64_t num_edges,
                                         uint32_t num_candidates,
                                         uint64_t seed,
                                         double max_stubbornness = 1.0) {
  Rng rng(seed);
  graph::InteractionCounts counts;
  counts.kind = graph::InteractionCounts::Kind::kPoisson;
  counts.mean = 4.0;
  graph::Graph raw = graph::ErdosRenyiDigraph(num_nodes, num_edges, counts,
                                              &rng);
  RandomInstance inst;
  inst.graph = raw.NormalizedIncoming();

  inst.state.campaigns.resize(num_candidates);
  for (auto& campaign : inst.state.campaigns) {
    campaign.initial_opinions.resize(num_nodes);
    campaign.stubbornness.resize(num_nodes);
    for (uint32_t v = 0; v < num_nodes; ++v) {
      campaign.initial_opinions[v] = rng.Uniform();
      campaign.stubbornness[v] = rng.Uniform() * max_stubbornness;
    }
  }
  return inst;
}

/// What a query reads of a hosted sketch: a ShareFrozen view of its frozen
/// layer with values reset from `opinions`. The view pins nothing, so it
/// must not outlive `sketch`.
inline std::unique_ptr<core::WalkSet> QueryView(
    const core::WalkSet& sketch, const std::vector<double>& opinions) {
  auto view = sketch.ShareFrozen(
      std::shared_ptr<const void>(std::shared_ptr<const void>(), &sketch));
  view->ResetValues(opinions);
  return view;
}

}  // namespace voteopt::test

#endif  // VOTEOPT_TESTS_TEST_FIXTURES_H_
