#include "sketch_ooc/block_store.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace voteopt::sketch_ooc {

namespace {

struct BlockMetaDisk {
  uint32_t block_index;
  uint32_t reserved;
  uint64_t lo;
  uint64_t hi;
  uint64_t num_edges;
  uint64_t graph_fingerprint;
};
static_assert(sizeof(BlockMetaDisk) == 40);

struct ManifestMetaDisk {
  uint32_t num_nodes;
  uint32_t num_blocks;
  uint64_t num_edges;
  uint64_t graph_fingerprint;
};
static_assert(sizeof(ManifestMetaDisk) == 24);

// Writes a section file atomically: temp sibling + rename, so a crash
// mid-write never leaves a half-written file at the final path.
Status WriteSectionFileAtomic(const std::string& path, store::FileKind kind,
                              const std::vector<store::SectionRef>& sections) {
  const std::string tmp = path + ".tmp";
  if (Status st = store::WriteSectionFile(tmp, kind, sections); !st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

}  // namespace

uint64_t InCsrFingerprint(const graph::Graph& graph) {
  const auto offsets = graph.InOffsets();
  const auto sources = graph.InSources();
  const auto weights = graph.InWeightsRaw();
  uint64_t h[3] = {
      store::Fnv1a64(offsets.data(), offsets.size_bytes()),
      store::Fnv1a64(sources.data(), sources.size_bytes()),
      store::Fnv1a64(weights.data(), weights.size_bytes()),
  };
  return store::Fnv1a64(h, sizeof(h));
}

std::string BlockPath(const std::string& prefix, uint32_t block) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), ".blk%05u", block);
  return prefix + suffix;
}

std::string ManifestPath(const std::string& prefix) {
  return prefix + ".blkmanifest";
}

Status WriteBlocks(const graph::Graph& graph, const PartitionPlan& plan,
                   const std::string& prefix) {
  VOTEOPT_RETURN_IF_ERROR(plan.Validate(graph.num_nodes()));
  const uint64_t fingerprint = InCsrFingerprint(graph);
  const auto global_offsets = graph.InOffsets();
  const auto sources = graph.InSources();
  const auto weights = graph.InWeightsRaw();

  std::vector<uint64_t> block_edges(plan.num_blocks());
  std::vector<uint64_t> local_offsets;
  for (uint32_t b = 0; b < plan.num_blocks(); ++b) {
    const graph::NodeId lo = plan.bounds[b], hi = plan.bounds[b + 1];
    const uint64_t edge_begin = global_offsets[lo];
    const uint64_t edge_end = global_offsets[hi];
    block_edges[b] = edge_end - edge_begin;

    // Rebase the range's offsets to the block-local edge space.
    local_offsets.resize(hi - lo + 1);
    for (uint64_t i = 0; i <= hi - lo; ++i) {
      local_offsets[i] = global_offsets[lo + i] - edge_begin;
    }

    const BlockMetaDisk meta{b, 0, lo, hi, block_edges[b], fingerprint};
    std::vector<store::SectionRef> sections;
    sections.push_back({"blockmeta", &meta, sizeof(meta)});
    sections.push_back(store::MakeSection(
        "in_offsets", std::span<const uint64_t>(local_offsets)));
    sections.push_back(store::MakeSection(
        "in_sources", sources.subspan(edge_begin, block_edges[b])));
    sections.push_back(store::MakeSection(
        "in_weights", weights.subspan(edge_begin, block_edges[b])));
    VOTEOPT_RETURN_IF_ERROR(WriteSectionFileAtomic(
        BlockPath(prefix, b), store::FileKind::kGraphBlock, sections));
  }

  // The manifest goes last: its presence certifies every block above
  // reached its final path.
  const ManifestMetaDisk meta{graph.num_nodes(), plan.num_blocks(),
                              graph.num_edges(), fingerprint};
  std::vector<store::SectionRef> sections;
  sections.push_back({"meta", &meta, sizeof(meta)});
  sections.push_back(store::MakeSection(
      "bounds", std::span<const graph::NodeId>(plan.bounds)));
  sections.push_back(store::MakeSection(
      "block_edges", std::span<const uint64_t>(block_edges)));
  return WriteSectionFileAtomic(ManifestPath(prefix),
                                store::FileKind::kBlockManifest, sections);
}

void RemoveBlocks(const std::string& prefix, uint32_t num_blocks) {
  std::remove(ManifestPath(prefix).c_str());
  for (uint32_t b = 0; b < num_blocks; ++b) {
    std::remove(BlockPath(prefix, b).c_str());
  }
}

Result<BlockSet> BlockSet::Open(const std::string& prefix) {
  auto file = store::MappedFile::Open(ManifestPath(prefix));
  if (!file.ok()) return file.status();
  auto reader =
      store::SectionReader::Parse(*file, store::FileKind::kBlockManifest);
  if (!reader.ok()) return reader.status();

  auto meta_raw = reader->Raw("meta");
  if (!meta_raw.ok()) return meta_raw.status();
  if (meta_raw->size() != sizeof(ManifestMetaDisk)) {
    return Status::Corruption(prefix + ": bad block manifest meta size");
  }
  ManifestMetaDisk meta;
  std::memcpy(&meta, meta_raw->data(), sizeof(meta));

  auto bounds = reader->Typed<graph::NodeId>("bounds");
  if (!bounds.ok()) return bounds.status();
  auto block_edges = reader->Typed<uint64_t>("block_edges");
  if (!block_edges.ok()) return block_edges.status();

  BlockSet set;
  set.prefix_ = prefix;
  set.plan_.bounds.assign(bounds->begin(), bounds->end());
  set.block_edges_.assign(block_edges->begin(), block_edges->end());
  set.num_edges_ = meta.num_edges;
  set.fingerprint_ = meta.graph_fingerprint;
  if (set.plan_.bounds.size() != meta.num_blocks + 1ull ||
      set.block_edges_.size() != meta.num_blocks) {
    return Status::Corruption(prefix +
                              ": block manifest sections disagree with meta");
  }
  VOTEOPT_RETURN_IF_ERROR(set.plan_.Validate(meta.num_nodes));
  uint64_t total_edges = 0;
  for (uint64_t e : set.block_edges_) total_edges += e;
  if (total_edges != meta.num_edges) {
    return Status::Corruption(prefix +
                              ": block edge counts disagree with manifest");
  }
  return set;
}

Result<GraphBlock> BlockSet::LoadBlock(uint32_t block) const {
  if (block >= num_blocks()) {
    return Status::OutOfRange("block index out of range");
  }
  const std::string path = BlockPath(prefix_, block);
  auto file = store::MappedFile::Open(path);
  if (!file.ok()) return file.status();
  auto reader =
      store::SectionReader::Parse(*file, store::FileKind::kGraphBlock);
  if (!reader.ok()) return reader.status();

  auto meta_raw = reader->Raw("blockmeta");
  if (!meta_raw.ok()) return meta_raw.status();
  if (meta_raw->size() != sizeof(BlockMetaDisk)) {
    return Status::Corruption(path + ": bad block meta size");
  }
  BlockMetaDisk meta;
  std::memcpy(&meta, meta_raw->data(), sizeof(meta));

  const graph::NodeId lo = plan_.bounds[block];
  const graph::NodeId hi = plan_.bounds[block + 1];
  if (meta.block_index != block || meta.lo != lo || meta.hi != hi ||
      meta.num_edges != block_edges_[block] ||
      meta.graph_fingerprint != fingerprint_) {
    return Status::Corruption(path + ": block disagrees with its manifest");
  }

  auto offsets = reader->Typed<uint64_t>("in_offsets");
  if (!offsets.ok()) return offsets.status();
  auto sources = reader->Typed<graph::NodeId>("in_sources");
  if (!sources.ok()) return sources.status();
  auto weights = reader->Typed<double>("in_weights");
  if (!weights.ok()) return weights.status();

  if (offsets->size() != static_cast<uint64_t>(hi - lo) + 1 ||
      offsets->front() != 0 || offsets->back() != meta.num_edges ||
      sources->size() != meta.num_edges ||
      weights->size() != meta.num_edges) {
    return Status::Corruption(path + ": block CSR sections are inconsistent");
  }
  for (uint64_t i = 1; i < offsets->size(); ++i) {
    if ((*offsets)[i] < (*offsets)[i - 1]) {
      return Status::Corruption(path + ": block offsets must be monotone");
    }
  }
  for (graph::NodeId u : *sources) {
    if (u >= num_nodes()) {
      return Status::Corruption(path + ": block edge source out of range");
    }
  }
  // Alias construction divides by each row's weight sum, so guard exactly
  // what it needs: non-negative finite weights, positive row sums.
  for (uint64_t row = 0; row + 1 < offsets->size(); ++row) {
    double sum = 0.0;
    for (uint64_t i = (*offsets)[row]; i < (*offsets)[row + 1]; ++i) {
      const double w = (*weights)[i];
      if (!(w >= 0.0) || !std::isfinite(w)) {
        return Status::Corruption(path + ": block edge weight is invalid");
      }
      sum += w;
    }
    if ((*offsets)[row] != (*offsets)[row + 1] && !(sum > 0.0)) {
      return Status::Corruption(path + ": block row weights sum to zero");
    }
  }

  return GraphBlock{graph::AliasSampler(lo, *offsets, *sources, *weights),
                    reader->file()};
}

}  // namespace voteopt::sketch_ooc
