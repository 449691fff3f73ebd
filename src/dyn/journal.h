// Durable mutation journal: the store-format file (<bundle>.dynlog,
// FileKind::kMutationLog) that makes committed mutations survive a restart.
//
// Crash-consistency discipline is the store writer's: the journal is
// rewritten in full on every commit via write-temp + atomic rename
// (store::WriteSectionFile), so at any instant the path holds either the
// previous committed log or the new one — never a torn file. A crash
// mid-repair therefore loses at most the uncommitted batch; reload
// replays the journal on top of the immutable base bundle and
// deterministically reconstructs the exact pre-crash state (ledger entry
// 10 makes the replayed sketch bit-identical to the one that was live).
//
// The "meta" section pins the base bundle's fingerprint: a journal replayed
// against a different or modified bundle fails with FailedPrecondition
// instead of silently producing a wrong graph. Truncated or corrupted
// files yield a clean Status via the format layer's checksum validation.
//
// The records also name a mutated instance: FoldMutations continues FNV-1a
// from the predecessor's fingerprint over each mutation's record bytes, so
// a live commit folds its batch and a replay folds the whole journal once,
// and the two agree by construction (FNV-1a streams). Such a fingerprint
// names a lineage (base plus journal), not bytes: an edge_add followed by
// its edge_del folds to a new value although the content is back at the
// base. Only base bundles are content-hashed and checked.
#ifndef VOTEOPT_DYN_JOURNAL_H_
#define VOTEOPT_DYN_JOURNAL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dyn/mutation.h"
#include "util/status.h"

namespace voteopt::dyn {

/// Suffix appended to a dataset's bundle prefix to name its journal.
inline constexpr char kMutationLogSuffix[] = ".dynlog";

/// On-disk record, one per mutation ("mutations" section). Fixed 24-byte
/// little-endian layout; `pad` is written as zero so identical logs are
/// byte-identical files.
struct MutationRecord {
  uint32_t kind = 0;
  uint32_t u = 0;
  uint32_t v = 0;
  uint32_t pad = 0;
  double value = 0.0;
};
static_assert(sizeof(MutationRecord) == 24);

/// "meta" section payload.
struct MutationLogMeta {
  /// BundleFingerprint of the base bundle the log applies to.
  uint64_t base_fingerprint = 0;
  /// Number of records; cross-checked against the section length.
  uint64_t count = 0;
};
static_assert(sizeof(MutationLogMeta) == 16);

/// The record of one mutation: the one layout the journal file stores and
/// FoldMutations hashes.
MutationRecord EncodeMutation(const Mutation& mutation);

/// `fingerprint` folded with `mutations`: FNV-1a continued from it over
/// each mutation's record, in order. O(batch); folding a‖b equals folding
/// b onto the fold of a.
uint64_t FoldMutations(uint64_t fingerprint,
                       std::span<const Mutation> mutations);

/// A loaded journal: the base it applies to plus the ordered mutations.
struct MutationJournal {
  uint64_t base_fingerprint = 0;
  std::vector<Mutation> mutations;
};

/// Writes the complete journal to `path` via temp-file + rename. Purely a
/// function of (base_fingerprint, mutations): identical inputs produce
/// identical bytes.
Status SaveMutationLog(const std::string& path, uint64_t base_fingerprint,
                       std::span<const Mutation> mutations);

/// Reads and validates a journal. Corruption/truncation/unknown mutation
/// kinds yield a clean error Status.
Result<MutationJournal> LoadMutationLog(const std::string& path);

}  // namespace voteopt::dyn

#endif  // VOTEOPT_DYN_JOURNAL_H_
