#include "graph/alias_table.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace voteopt::graph {

namespace {

/// Vose's algorithm on one node's in-edge weight slice: fills
/// prob[0..deg) with acceptance probabilities and alias[0..deg) with
/// within-slice alias indices. `scaled`, `small`, `large` are caller-owned
/// scratch (cleared here) so tight loops don't reallocate. Deterministic:
/// the tables are a pure function of the weight slice.
void BuildAliasRow(std::span<const double> weights, double* prob,
                   uint32_t* alias, std::vector<double>* scaled,
                   std::vector<uint32_t>* small,
                   std::vector<uint32_t>* large) {
  const size_t deg = weights.size();
  const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  assert(sum > 0.0);

  // Vose's algorithm on the node's slice.
  scaled->assign(deg, 0.0);
  small->clear();
  large->clear();
  for (size_t i = 0; i < deg; ++i) {
    (*scaled)[i] = weights[i] / sum * static_cast<double>(deg);
    ((*scaled)[i] < 1.0 ? *small : *large).push_back(static_cast<uint32_t>(i));
  }
  while (!small->empty() && !large->empty()) {
    const uint32_t s = small->back();
    small->pop_back();
    const uint32_t l = large->back();
    prob[s] = (*scaled)[s];
    alias[s] = l;
    (*scaled)[l] = ((*scaled)[l] + (*scaled)[s]) - 1.0;
    if ((*scaled)[l] < 1.0) {
      large->pop_back();
      small->push_back(l);
    }
  }
  // Residual buckets saturate to probability 1 (they alias to themselves).
  for (uint32_t l : *large) {
    prob[l] = 1.0;
    alias[l] = l;
  }
  for (uint32_t s : *small) {
    prob[s] = 1.0;
    alias[s] = s;
  }
}

}  // namespace

AliasSampler::AliasSampler(const Graph& graph)
    : AliasSampler(graph, 0, graph.num_nodes()) {}

AliasSampler::AliasSampler(const Graph& graph, NodeId lo, NodeId hi)
    : lo_(lo), hi_(hi) {
  assert(lo <= hi && hi <= graph.num_nodes());
  const auto offsets = graph.InOffsets().subspan(lo, hi - lo + 1);
  const uint64_t edge_begin = offsets.front();
  const uint64_t num_edges = offsets.back() - edge_begin;
  sources_ = graph.InSources().subspan(edge_begin, num_edges);
  const auto weights = graph.InWeightsRaw().subspan(edge_begin, num_edges);
  prob_.assign(num_edges, 1.0);
  alias_.assign(num_edges, 0);
  offsets_.reserve(offsets.size());
  for (const uint64_t offset : offsets) offsets_.push_back(offset - edge_begin);
  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
  std::vector<double> scaled;
  for (uint64_t row = 0; row + 1 < offsets_.size(); ++row) {
    const uint64_t begin = offsets_[row], end = offsets_[row + 1];
    if (begin == end) continue;
    BuildAliasRow(weights.subspan(begin, end - begin), prob_.data() + begin,
                  alias_.data() + begin, &scaled, &small, &large);
  }
}

AliasSampler::AliasSampler(const Graph& graph, const AliasSampler& base,
                           std::span<const NodeId> dirty_rows)
    : hi_(graph.num_nodes()),
      sources_(graph.InSources()),
      prob_(graph.num_edges(), 1.0),
      alias_(graph.num_edges(), 0),
      offsets_(graph.InOffsets().begin(), graph.InOffsets().end()) {
  assert(base.lo_ == 0 && base.hi_ == hi_);
  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
  std::vector<double> scaled;
  size_t next_dirty = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const bool dirty =
        next_dirty < dirty_rows.size() && dirty_rows[next_dirty] == v;
    if (dirty) ++next_dirty;
    const auto weights = graph.InWeights(v);
    if (weights.empty()) continue;
    const uint64_t dst = offsets_[v];
    if (!dirty) {
      // Clean rows locate their base slice through base's OWN offsets
      // snapshot — base's graph may already be freed (a sampler can be
      // shared across dataset generations whose graphs it outlives).
      const uint64_t src = base.offsets_[v];
      assert(base.offsets_[v + 1] - src == weights.size());
      std::copy_n(base.prob_.begin() + src, weights.size(),
                  prob_.begin() + dst);
      std::copy_n(base.alias_.begin() + src, weights.size(),
                  alias_.begin() + dst);
      continue;
    }
    BuildAliasRow(weights, prob_.data() + dst, alias_.data() + dst, &scaled,
                  &small, &large);
  }
  assert(next_dirty == dirty_rows.size());
}

double AliasSampler::Probability(NodeId v, size_t slot) const {
  // Reconstructs the sampling probability of slice position `slot`:
  // p = (prob[slot] + sum of (1 - prob[j]) over j aliasing to slot) / deg.
  const uint64_t base = offsets_[v - lo_];
  const uint64_t deg = offsets_[v - lo_ + 1] - base;
  assert(slot < deg);
  double p = prob_[base + slot];
  for (size_t j = 0; j < deg; ++j) {
    if (j != slot && alias_[base + j] == slot) p += 1.0 - prob_[base + j];
  }
  return p / static_cast<double>(deg);
}

}  // namespace voteopt::graph
