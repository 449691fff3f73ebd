#include "dyn/mutation.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>

namespace voteopt::dyn {
namespace {

/// A materialized copy of one in-row, kept sorted by source the way
/// GraphBuilder stores rows. Weights always sum to 1 after every edit
/// (or the row is empty).
struct Row {
  std::vector<graph::NodeId> sources;
  std::vector<double> weights;
};

void Renormalize(Row* row) {
  double sum = 0.0;
  for (double w : row->weights) sum += w;
  if (sum <= 0.0) return;
  for (double& w : row->weights) w /= sum;
}

/// One CSR direction of the patched graph, appended row by row in node
/// order: runs of rows the batch leaves alone copy from the base with
/// shifted offsets, and changed rows append their entries.
struct CsrRows {
  CsrRows(std::span<const uint64_t> from_offsets,
          std::span<const graph::NodeId> from_ends,
          std::span<const double> from_weights, uint64_t num_edges)
      : base_offsets(from_offsets),
        base_ends(from_ends),
        base_weights(from_weights) {
    offsets.reserve(base_offsets.size());
    offsets.push_back(0);
    ends.reserve(num_edges);
    weights.reserve(num_edges);
  }

  /// Copies the base's rows from the next unwritten one up to `last`
  /// (exclusive) as one run.
  void CopyRun(graph::NodeId last) {
    const graph::NodeId first = static_cast<graph::NodeId>(offsets.size() - 1);
    const uint64_t begin = base_offsets[first];
    const uint64_t end = base_offsets[last];
    const uint64_t shift = ends.size() - begin;  // modulo 2^64
    for (graph::NodeId v = first; v < last; ++v) {
      offsets.push_back(base_offsets[v + 1] + shift);
    }
    ends.insert(ends.end(), base_ends.begin() + begin,
                base_ends.begin() + end);
    weights.insert(weights.end(), base_weights.begin() + begin,
                   base_weights.begin() + end);
  }

  void Append(graph::NodeId end, double weight) {
    ends.push_back(end);
    weights.push_back(weight);
  }

  /// Closes the row being appended.
  void EndRow() { offsets.push_back(ends.size()); }

  std::span<const uint64_t> base_offsets;
  std::span<const graph::NodeId> base_ends;
  std::span<const double> base_weights;
  std::vector<uint64_t> offsets;
  std::vector<graph::NodeId> ends;
  std::vector<double> weights;
};

}  // namespace

const char* MutationKindName(Mutation::Kind kind) {
  switch (kind) {
    case Mutation::Kind::kEdgeAdd:
      return "edge_add";
    case Mutation::Kind::kEdgeDel:
      return "edge_del";
    case Mutation::Kind::kSetOpinion:
      return "set_opinion";
  }
  return "?";
}

Result<PatchResult> ApplyMutations(const graph::Graph& graph,
                                   const opinion::MultiCampaignState& state,
                                   std::span<const Mutation> mutations) {
  const uint32_t n = graph.num_nodes();
  const uint32_t r = state.num_candidates();

  PatchResult result;
  result.state = state;

  // In-rows are copied out of the CSR lazily, only for mutated targets;
  // std::map keeps the eventual dirty-node sweep in ascending node order.
  std::map<graph::NodeId, Row> rows;
  auto row_of = [&](graph::NodeId v) -> Row& {
    auto it = rows.find(v);
    if (it == rows.end()) {
      Row row;
      auto sources = graph.InNeighbors(v);
      auto weights = graph.InWeights(v);
      row.sources.assign(sources.begin(), sources.end());
      row.weights.assign(weights.begin(), weights.end());
      it = rows.emplace(v, std::move(row)).first;
    }
    return it->second;
  };

  for (size_t i = 0; i < mutations.size(); ++i) {
    const Mutation& m = mutations[i];
    const std::string at = " (mutation " + std::to_string(i) + ")";
    switch (m.kind) {
      case Mutation::Kind::kEdgeAdd: {
        if (m.u >= n || m.v >= n) {
          return Status::InvalidArgument("edge_add: node id out of range" + at);
        }
        if (m.u == m.v) {
          return Status::InvalidArgument("edge_add: self loop " +
                                         std::to_string(m.u) + at);
        }
        if (!std::isfinite(m.value) || m.value <= 0.0) {
          return Status::InvalidArgument("edge_add: weight must be positive" +
                                         at);
        }
        Row& row = row_of(m.v);
        auto pos = std::lower_bound(row.sources.begin(), row.sources.end(),
                                    m.u);
        if (pos != row.sources.end() && *pos == m.u) {
          return Status::FailedPrecondition(
              "edge_add: edge " + std::to_string(m.u) + " -> " +
              std::to_string(m.v) + " already exists" + at);
        }
        size_t idx = static_cast<size_t>(pos - row.sources.begin());
        row.sources.insert(pos, m.u);
        row.weights.insert(row.weights.begin() + idx, m.value);
        Renormalize(&row);
        ++result.edges_added;
        break;
      }
      case Mutation::Kind::kEdgeDel: {
        if (m.u >= n || m.v >= n) {
          return Status::InvalidArgument("edge_del: node id out of range" + at);
        }
        Row& row = row_of(m.v);
        auto pos = std::lower_bound(row.sources.begin(), row.sources.end(),
                                    m.u);
        if (pos == row.sources.end() || *pos != m.u) {
          return Status::NotFound("edge_del: edge " + std::to_string(m.u) +
                                  " -> " + std::to_string(m.v) +
                                  " does not exist" + at);
        }
        size_t idx = static_cast<size_t>(pos - row.sources.begin());
        row.sources.erase(pos);
        row.weights.erase(row.weights.begin() + idx);
        Renormalize(&row);
        ++result.edges_deleted;
        break;
      }
      case Mutation::Kind::kSetOpinion: {
        if (m.u >= r) {
          return Status::InvalidArgument(
              "set_opinion: candidate out of range" + at);
        }
        if (m.v >= n) {
          return Status::InvalidArgument("set_opinion: node out of range" + at);
        }
        if (!std::isfinite(m.value) || m.value < 0.0 || m.value > 1.0) {
          return Status::InvalidArgument(
              "set_opinion: value must be in [0, 1]" + at);
        }
        result.state.campaigns[m.u].initial_opinions[m.v] = m.value;
        ++result.opinions_set;
        break;
      }
      default:
        return Status::InvalidArgument("unknown mutation kind" + at);
    }
  }

  result.dirty_nodes.reserve(rows.size());
  for (const auto& [v, row] : rows) result.dirty_nodes.push_back(v);
  const std::vector<graph::NodeId>& dirty = result.dirty_nodes;

  // The patched in-CSR: clean rows copy as runs, each mutated row is
  // replaced by its patched copy (byte identity of clean rows is what lets
  // the repairer keep their alias rows and walks).
  uint64_t num_edges = graph.num_edges();
  for (const auto& [v, row] : rows) {
    num_edges = num_edges + row.sources.size() - graph.InDegree(v);
  }
  CsrRows in(graph.InOffsets(), graph.InSources(), graph.InWeightsRaw(),
             num_edges);
  for (const auto& [v, row] : rows) {
    in.CopyRun(v);
    in.ends.insert(in.ends.end(), row.sources.begin(), row.sources.end());
    in.weights.insert(in.weights.end(), row.weights.begin(),
                      row.weights.end());
    in.EndRow();
  }
  in.CopyRun(n);

  // The patched out-CSR, equal to what GraphBuilder's stable counting pass
  // derives from the patched in-CSR: out-row u lists u's in-row entries in
  // target order. Only sources with an entry in a mutated in-row, before
  // or after the batch, change; each merges its surviving entries with
  // its entries from the patched rows. `edits` holds the latter grouped by
  // source, in target order within a source (rows are visited ascending).
  struct OutEdit {
    graph::NodeId source;
    graph::NodeId target;
    double weight;
  };
  std::vector<OutEdit> edits;
  std::vector<graph::NodeId> sources;
  for (const auto& [v, row] : rows) {
    for (size_t i = 0; i < row.sources.size(); ++i) {
      edits.push_back({row.sources[i], v, row.weights[i]});
    }
    const auto before = graph.InNeighbors(v);
    sources.insert(sources.end(), before.begin(), before.end());
    sources.insert(sources.end(), row.sources.begin(), row.sources.end());
  }
  std::stable_sort(edits.begin(), edits.end(),
                   [](const OutEdit& a, const OutEdit& b) {
                     return a.source < b.source;
                   });
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());

  CsrRows out(graph.OutOffsets(), graph.OutTargets(), graph.OutWeightsRaw(),
              num_edges);
  auto edit = edits.begin();
  for (const graph::NodeId u : sources) {
    out.CopyRun(u);
    const auto targets = graph.OutNeighbors(u);
    const auto weights = graph.OutWeights(u);
    for (size_t i = 0; i < targets.size(); ++i) {
      for (; edit != edits.end() && edit->source == u &&
             edit->target < targets[i];
           ++edit) {
        out.Append(edit->target, edit->weight);
      }
      // An entry into a mutated row comes back from the patched row.
      if (!std::binary_search(dirty.begin(), dirty.end(), targets[i])) {
        out.Append(targets[i], weights[i]);
      }
    }
    for (; edit != edits.end() && edit->source == u; ++edit) {
      out.Append(edit->target, edit->weight);
    }
    out.EndRow();
  }
  out.CopyRun(n);

  auto patched = graph::Graph::FromCsr(
      n, std::move(out.offsets), std::move(out.ends), std::move(out.weights),
      std::move(in.offsets), std::move(in.ends), std::move(in.weights));
  if (!patched.ok()) return patched.status();
  result.graph = std::move(patched).value();
  return result;
}

}  // namespace voteopt::dyn
