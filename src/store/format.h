// The voteopt on-disk container format (the persistence layer behind the
// graph and sketch stores):
//
//   [FileHeader]    magic "VOPTSTOR", format version, file kind,
//                   section count, FNV-1a checksum of the section table
//   [SectionTable]  per section: 16-byte name, absolute offset, byte size,
//                   FNV-1a checksum of the payload
//   [Payloads]      raw little-endian arrays, each 8-byte aligned
//
// Everything is little-endian; payloads are flat POD arrays so an mmap'd
// file can be consumed in place (offsets are 8-byte aligned and mmap bases
// are page aligned, so typed views are always correctly aligned). Readers
// verify the magic, version, kind, table bounds, and every checksum before
// handing out data: a truncated or corrupted file yields a clean Status,
// never UB.
#ifndef VOTEOPT_STORE_FORMAT_H_
#define VOTEOPT_STORE_FORMAT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace voteopt::store {

inline constexpr uint32_t kFormatVersion = 1;
inline constexpr char kMagic[8] = {'V', 'O', 'P', 'T', 'S', 'T', 'O', 'R'};
inline constexpr size_t kMaxSectionName = 15;  // + NUL inside 16 bytes

/// What a store file contains; part of the header so a sketch file can
/// never be mistaken for a graph file.
enum class FileKind : uint32_t {
  kGraph = 1,
  kSketch = 2,
  // 3 and 4 are retired and must not be reused; kMutationLog keeps 5 so
  // that existing journals still load.
  /// A dataset's committed mutation journal (dyn/journal.h): the ordered
  /// edge/opinion edits applied on top of the immutable base bundle.
  kMutationLog = 5,
};

/// FNV-1a's 64-bit offset basis: the hash of the empty byte range.
inline constexpr uint64_t kFnv1a64Basis = 0xCBF29CE484222325ULL;

/// FNV-1a 64-bit over a byte range (the format's checksum primitive),
/// continued from `basis`. Hashing is streaming: Fnv1a64 over a‖b equals
/// Fnv1a64 over b with basis Fnv1a64(a).
uint64_t Fnv1a64(const void* data, size_t size,
                 uint64_t basis = kFnv1a64Basis);

/// One section to be written: a name (<= 15 chars) plus a borrowed byte
/// range that must stay alive until WriteSectionFile returns.
struct SectionRef {
  std::string name;
  const void* data = nullptr;
  uint64_t size = 0;
};

template <typename T>
SectionRef MakeSection(std::string name, std::span<const T> payload) {
  return {std::move(name), payload.data(), payload.size_bytes()};
}

/// Writes a complete store file. Purely a function of (kind, sections):
/// identical inputs produce identical bytes. The bytes go to a temp file
/// next to `path`, unique per process and call, which is renamed over
/// `path` once complete and removed on any failure: `path` holds either
/// its previous contents or the whole new file, never a torn mix, even
/// with concurrent writers. Nothing is fsynced, so this protects against
/// a crashed writer, not against power loss.
Status WriteSectionFile(const std::string& path, FileKind kind,
                        const std::vector<SectionRef>& sections);

/// A read-only byte source for a store file: either an mmap'd view (zero
/// copy; pages are faulted in lazily) or a heap copy (portable fallback,
/// also useful when the file may be replaced while loaded views live on).
class MappedFile {
 public:
  enum class Mode {
    kMmap,  // mmap when the platform supports it, else heap copy
    kCopy,  // always read into a heap buffer
  };

  static Result<std::shared_ptr<MappedFile>> Open(const std::string& path,
                                                  Mode mode = Mode::kMmap);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  /// True when the bytes are an mmap view rather than a heap copy.
  bool mmapped() const { return mmapped_; }

 private:
  MappedFile() = default;

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mmapped_ = false;
  std::vector<uint8_t> heap_;  // backing storage in kCopy mode
};

/// Parses and validates a store file's header + section table + payload
/// checksums, then serves typed views into the (still mapped) payloads.
class SectionReader {
 public:
  /// Validates everything up front; returns Corruption/InvalidArgument on
  /// any malformed input. `file` is retained (shared) so views stay valid
  /// for the reader's lifetime and beyond via file().
  static Result<SectionReader> Parse(std::shared_ptr<const MappedFile> file,
                                     FileKind expected_kind);

  /// Raw bytes of a named section; NotFound when absent.
  Result<std::span<const uint8_t>> Raw(const std::string& name) const;

  /// The section reinterpreted as a flat array of T. Corruption when the
  /// byte size is not a multiple of sizeof(T).
  template <typename T>
  Result<std::span<const T>> Typed(const std::string& name) const {
    static_assert(std::is_trivially_copyable_v<T>);
    auto raw = Raw(name);
    if (!raw.ok()) return raw.status();
    if (raw->size() % sizeof(T) != 0) {
      return Status::Corruption("section '" + name +
                                "' size is not a multiple of element size");
    }
    return std::span<const T>(reinterpret_cast<const T*>(raw->data()),
                              raw->size() / sizeof(T));
  }

  /// The backing file, for pinning mmap-backed views (keep-alive).
  const std::shared_ptr<const MappedFile>& file() const { return file_; }

 private:
  struct Entry {
    std::string name;
    uint64_t offset;
    uint64_t size;
  };

  std::shared_ptr<const MappedFile> file_;
  std::vector<Entry> entries_;
};

}  // namespace voteopt::store

#endif  // VOTEOPT_STORE_FORMAT_H_
