#include "core/walk_engine.h"

namespace voteopt::core {

void WalkEngine::Extend(graph::NodeId start, uint32_t horizon, Rng* rng,
                        std::vector<graph::NodeId>* nodes) const {
  graph::NodeId current = start;
  for (uint32_t step = 0; step < horizon; ++step) {
    const double d = campaign_->stubbornness[current];
    if (d >= 1.0 || (d > 0.0 && rng->Uniform() < d)) break;  // absorbed
    const graph::NodeId next = alias_->SampleInNeighbor(current, rng);
    if (next == graph::AliasSampler::kNoNeighbor) break;  // no in-edges
    nodes->push_back(next);
    current = next;
  }
}

void WalkEngine::Generate(graph::NodeId start, uint32_t horizon, Rng* rng,
                          std::vector<graph::NodeId>* out) const {
  out->clear();
  out->push_back(start);
  Extend(start, horizon, rng, out);
}

void WalkEngine::GenerateSeeded(uint64_t first_walk, uint64_t count,
                                uint32_t horizon, uint64_t master_seed,
                                WalkBuffer* out) const {
  const uint64_t n = graph_->num_nodes();
  for (uint64_t j = 0; j < count; ++j) {
    Rng rng = SketchWalkRng(master_seed, first_walk + j);
    const auto start = static_cast<graph::NodeId>(rng.UniformInt(n));
    const size_t before = out->nodes.size();
    out->nodes.push_back(start);
    Extend(start, horizon, &rng, &out->nodes);
    out->lengths.push_back(static_cast<uint32_t>(out->nodes.size() - before));
  }
}

double WalkEngine::GenerateWithSeeds(graph::NodeId start, uint32_t horizon,
                                     const std::vector<bool>& is_seed,
                                     Rng* rng) const {
  graph::NodeId current = start;
  for (uint32_t step = 0; step < horizon; ++step) {
    if (is_seed[current]) break;  // d[S] = 1: absorbed at the seed
    const double d = campaign_->stubbornness[current];
    if (d >= 1.0 || (d > 0.0 && rng->Uniform() < d)) break;
    const graph::NodeId next = alias_->SampleInNeighbor(current, rng);
    if (next == graph::AliasSampler::kNoNeighbor) break;
    current = next;
  }
  return is_seed[current] ? 1.0 : campaign_->initial_opinions[current];
}

}  // namespace voteopt::core
