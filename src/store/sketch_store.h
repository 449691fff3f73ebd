// Binary persistence for WalkSet sketch sets (the RS method's expensive
// artifact, paper § VI) in the voteopt store container: the frozen walk
// data — nodes, offsets, starts, per-node walk counts / score weights, and
// the inverted index — plus a meta section recording how the sketches were
// built (theta, horizon, target candidate, master seed).
//
// This is the offline/online split: BuildSketchSet once, SaveSketch, then
// any number of query processes LoadSketch and answer top-k / min-seed /
// evaluation queries. In kMmap mode the loaded WalkSet's frozen spans point
// straight into the mapping (no copy; pages fault in on first use); only
// the O(theta) dynamic state is materialized, by WalkSet::ResetValues.
//
// Saving is a pure function of the frozen data, so save -> load -> save
// round-trips byte-identically. Loads validate checksums (format layer)
// and full structural consistency (walk offsets monotone, ids in range,
// index sane) before adopting any bytes.
#ifndef VOTEOPT_STORE_SKETCH_STORE_H_
#define VOTEOPT_STORE_SKETCH_STORE_H_

#include <memory>
#include <string>

#include "core/walk_set.h"
#include "store/format.h"
#include "util/status.h"

namespace voteopt::store {

/// Conventional file extension for sketch store files (also the dataset
/// bundle member name: <prefix>.sketch).
inline constexpr char kSketchFileSuffix[] = ".sketch";

/// Provenance of a sketch set, persisted alongside the walks so an online
/// service can validate compatibility (the walks bake in the horizon and
/// the target campaign's stubbornness) without re-deriving anything.
struct SketchMeta {
  uint64_t theta = 0;        // number of sampled walks
  uint32_t horizon = 0;      // t the walks were generated for
  uint32_t target = 0;       // candidate whose campaign drove the walks
  uint64_t master_seed = 0;  // walk j draws from SketchWalkRng(master_seed, j)
  /// Fingerprint of the problem instance (graph + campaign state) the
  /// walks were generated from — see api::DatasetRegistry, which refuses
  /// to serve a sketch against a bundle with a different fingerprint. A
  /// regenerated bundle with the same node count would otherwise silently
  /// produce wrong answers. 0 = unknown (no check).
  uint64_t bundle_fingerprint = 0;
};

/// Persists a finalized WalkSet, atomically (WriteSectionFile). Only the
/// frozen layer is written; the dynamic truncation state is derived again
/// on load.
Status SaveSketch(const core::WalkSet& walks, const SketchMeta& meta,
                  const std::string& path);

enum class SketchLoadMode {
  kMmap,  // zero-copy: frozen spans alias the mapping
  kCopy,  // heap-backed: safe if the file is replaced while in use
};

struct LoadedSketch {
  /// Frozen and adopted; call ResetValues(initial_opinions) before use.
  std::unique_ptr<core::WalkSet> walks;
  SketchMeta meta;
};

Result<LoadedSketch> LoadSketch(const std::string& path,
                                SketchLoadMode mode = SketchLoadMode::kMmap);

}  // namespace voteopt::store

#endif  // VOTEOPT_STORE_SKETCH_STORE_H_
