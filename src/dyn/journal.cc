#include "dyn/journal.h"

#include <span>
#include <utility>

#include "store/format.h"

namespace voteopt::dyn {

MutationRecord EncodeMutation(const Mutation& mutation) {
  MutationRecord rec;
  rec.kind = static_cast<uint32_t>(mutation.kind);
  rec.u = mutation.u;
  rec.v = mutation.v;
  rec.value = mutation.value;
  return rec;
}

uint64_t FoldMutations(uint64_t fingerprint,
                       std::span<const Mutation> mutations) {
  for (const Mutation& m : mutations) {
    const MutationRecord rec = EncodeMutation(m);
    fingerprint = store::Fnv1a64(&rec, sizeof(rec), fingerprint);
  }
  return fingerprint;
}

Status SaveMutationLog(const std::string& path, uint64_t base_fingerprint,
                       std::span<const Mutation> mutations) {
  MutationLogMeta meta;
  meta.base_fingerprint = base_fingerprint;
  meta.count = mutations.size();

  std::vector<MutationRecord> records;
  records.reserve(mutations.size());
  for (const Mutation& m : mutations) records.push_back(EncodeMutation(m));

  std::vector<store::SectionRef> sections;
  sections.push_back(store::MakeSection<MutationLogMeta>(
      "meta", std::span<const MutationLogMeta>(&meta, 1)));
  sections.push_back(store::MakeSection<MutationRecord>(
      "mutations", std::span<const MutationRecord>(records)));

  return store::WriteSectionFile(path, store::FileKind::kMutationLog,
                                 sections);
}

Result<MutationJournal> LoadMutationLog(const std::string& path) {
  auto file = store::MappedFile::Open(path, store::MappedFile::Mode::kCopy);
  if (!file.ok()) return file.status();
  auto reader =
      store::SectionReader::Parse(*file, store::FileKind::kMutationLog);
  if (!reader.ok()) return reader.status();

  auto meta = reader->Typed<MutationLogMeta>("meta");
  if (!meta.ok()) return meta.status();
  if (meta->size() != 1) {
    return Status::Corruption("mutation log meta section malformed");
  }
  auto records = reader->Typed<MutationRecord>("mutations");
  if (!records.ok()) return records.status();
  if ((*meta)[0].count != records->size()) {
    return Status::Corruption("mutation log record count mismatch");
  }

  MutationJournal journal;
  journal.base_fingerprint = (*meta)[0].base_fingerprint;
  journal.mutations.reserve(records->size());
  for (const MutationRecord& rec : *records) {
    if (rec.kind < static_cast<uint32_t>(Mutation::Kind::kEdgeAdd) ||
        rec.kind > static_cast<uint32_t>(Mutation::Kind::kSetOpinion)) {
      return Status::Corruption("mutation log holds unknown mutation kind " +
                                std::to_string(rec.kind));
    }
    Mutation m;
    m.kind = static_cast<Mutation::Kind>(rec.kind);
    m.u = rec.u;
    m.v = rec.v;
    m.value = rec.value;
    journal.mutations.push_back(m);
  }
  return journal;
}

}  // namespace voteopt::dyn
