// Persistence of partitioned graph blocks via the store:: section format.
//
// A block set is P files `<prefix>.blk00000 .. .blk<P-1>` (FileKind
// kGraphBlock) plus one manifest `<prefix>.blkmanifest` (kBlockManifest).
// Each block file holds the rebased in-CSR slice of its node range
// [lo, hi): local offsets (hi - lo + 1 entries, offsets[0] == 0), the
// concatenated in-edge sources (GLOBAL node ids) and weights, and a meta
// section naming the range and the in-CSR fingerprint of the source graph.
//
// Crash consistency: every file is written temp + rename, and the manifest
// is written LAST — its presence certifies that all block files were
// complete at write time. Open() validates the manifest, and LoadBlock()
// re-validates every block against it (kind, checksums via the store
// format, range, edge count, fingerprint), so a truncated or corrupted
// block yields a clean Status and no partial data is ever served.
#ifndef VOTEOPT_SKETCH_OOC_BLOCK_STORE_H_
#define VOTEOPT_SKETCH_OOC_BLOCK_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/alias_table.h"
#include "graph/graph.h"
#include "sketch_ooc/partition.h"
#include "store/format.h"
#include "util/status.h"

namespace voteopt::sketch_ooc {

/// FNV-1a fingerprint of a graph's in-CSR arrays: ties block files to the
/// exact graph they were cut from, so a stale block set is rejected rather
/// than silently mixed with a regenerated sibling.
uint64_t InCsrFingerprint(const graph::Graph& graph);

/// Path of block b / the manifest under `prefix` (exposed so tests can
/// truncate or corrupt individual files).
std::string BlockPath(const std::string& prefix, uint32_t block);
std::string ManifestPath(const std::string& prefix);

/// Writes the full block set for `plan` (which must Validate against
/// `graph`), blocks first, manifest last, every file temp + rename.
Status WriteBlocks(const graph::Graph& graph, const PartitionPlan& plan,
                   const std::string& prefix);

/// Removes the manifest and block files of a block set (best effort; used
/// to clean scratch block sets after an OOC build).
void RemoveBlocks(const std::string& prefix, uint32_t num_blocks);

/// One resident block: the alias tables over its node range [lo, hi) —
/// the sampler class the in-memory builder uses for the whole graph —
/// sampling global source ids straight out of the mapped file, which
/// keep_alive pins.
struct GraphBlock {
  graph::AliasSampler alias;
  std::shared_ptr<const store::MappedFile> keep_alive;
};

/// A validated, openable block set. Open() reads only the manifest; block
/// files are mapped on demand by LoadBlock, one at a time by the OOC
/// scheduler — that is the out-of-core contract.
class BlockSet {
 public:
  static Result<BlockSet> Open(const std::string& prefix);

  const PartitionPlan& plan() const { return plan_; }
  uint32_t num_blocks() const { return plan_.num_blocks(); }
  graph::NodeId num_nodes() const { return plan_.num_nodes(); }
  uint64_t num_edges() const { return num_edges_; }
  uint64_t fingerprint() const { return fingerprint_; }
  const std::string& prefix() const { return prefix_; }

  /// Maps, validates, and compiles block b (alias tables included).
  Result<GraphBlock> LoadBlock(uint32_t block) const;

 private:
  std::string prefix_;
  PartitionPlan plan_;
  std::vector<uint64_t> block_edges_;
  uint64_t num_edges_ = 0;
  uint64_t fingerprint_ = 0;
};

}  // namespace voteopt::sketch_ooc

#endif  // VOTEOPT_SKETCH_OOC_BLOCK_STORE_H_
