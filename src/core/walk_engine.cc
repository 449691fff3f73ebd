#include "core/walk_engine.h"

#include <iterator>

namespace voteopt::core {

void WalkEngine::Generate(graph::NodeId start, uint32_t horizon, Rng* rng,
                          std::vector<graph::NodeId>* out) const {
  out->clear();
  out->push_back(start);
  graph::NodeId head = start;
  Advance(&head, &horizon, rng, std::back_inserter(*out));
}

void WalkEngine::GenerateSeeded(uint64_t first_walk, uint64_t count,
                                uint32_t horizon, uint64_t master_seed,
                                WalkBuffer* out) const {
  assert(alias_->lo() == 0);
  const uint32_t n = alias_->hi();
  for (uint64_t j = 0; j < count; ++j) {
    auto [head, rng] = StartSketchWalk(master_seed, first_walk + j, n);
    const size_t before = out->nodes.size();
    out->nodes.push_back(head);
    uint32_t steps_left = horizon;
    Advance(&head, &steps_left, &rng, std::back_inserter(out->nodes));
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
