#include "store/format.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace voteopt::store {
namespace {

class StoreFormatTest : public ::testing::Test {
 protected:
  void SetUp() override { path_ = ::testing::TempDir() + "/format_test.bin"; }
  void TearDown() override { std::remove(path_.c_str()); }

  Status WriteSample() {
    payload_a_ = {1, 2, 3, 4, 5};
    payload_b_ = {0.5, -1.25};
    std::vector<SectionRef> sections;
    sections.push_back(
        MakeSection("alpha", std::span<const uint32_t>(payload_a_)));
    sections.push_back(
        MakeSection("beta", std::span<const double>(payload_b_)));
    return WriteSectionFile(path_, FileKind::kGraph, sections);
  }

  std::vector<uint8_t> ReadAll() {
    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    std::vector<uint8_t> bytes(static_cast<size_t>(in.tellg()));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    return bytes;
  }

  void WriteAll(const std::vector<uint8_t>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
  std::vector<uint32_t> payload_a_;
  std::vector<double> payload_b_;
};

TEST_F(StoreFormatTest, RoundTripsSections) {
  ASSERT_TRUE(WriteSample().ok());
  for (const MappedFile::Mode mode :
       {MappedFile::Mode::kMmap, MappedFile::Mode::kCopy}) {
    auto file = MappedFile::Open(path_, mode);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    auto reader = SectionReader::Parse(*file, FileKind::kGraph);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();

    auto alpha = reader->Typed<uint32_t>("alpha");
    ASSERT_TRUE(alpha.ok());
    EXPECT_EQ(std::vector<uint32_t>(alpha->begin(), alpha->end()),
              payload_a_);
    auto beta = reader->Typed<double>("beta");
    ASSERT_TRUE(beta.ok());
    EXPECT_EQ(std::vector<double>(beta->begin(), beta->end()), payload_b_);
  }
}

TEST(Fnv1a64Test, ContinuesFromABasis) {
  const std::string a = "voteopt", b = "fingerprint";
  const std::string ab = a + b;
  EXPECT_EQ(Fnv1a64(ab.data(), ab.size()),
            Fnv1a64(b.data(), b.size(), Fnv1a64(a.data(), a.size())));
  EXPECT_EQ(Fnv1a64(nullptr, 0), kFnv1a64Basis);
}

TEST_F(StoreFormatTest, WritesAreDeterministic) {
  ASSERT_TRUE(WriteSample().ok());
  const std::vector<uint8_t> first = ReadAll();
  ASSERT_TRUE(WriteSample().ok());
  EXPECT_EQ(ReadAll(), first);
}

TEST_F(StoreFormatTest, MissingFileIsIOError) {
  auto file = MappedFile::Open(path_ + ".does-not-exist");
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), Status::Code::kIOError);
}

TEST_F(StoreFormatTest, WrongMagicRejected) {
  ASSERT_TRUE(WriteSample().ok());
  auto bytes = ReadAll();
  bytes[0] = 'X';
  WriteAll(bytes);
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  auto reader = SectionReader::Parse(*file, FileKind::kGraph);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), Status::Code::kCorruption);
}

TEST_F(StoreFormatTest, WrongKindRejected) {
  ASSERT_TRUE(WriteSample().ok());
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  auto reader = SectionReader::Parse(*file, FileKind::kSketch);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(StoreFormatTest, TruncatedHeaderRejected) {
  ASSERT_TRUE(WriteSample().ok());
  auto bytes = ReadAll();
  bytes.resize(10);
  WriteAll(bytes);
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  auto reader = SectionReader::Parse(*file, FileKind::kGraph);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), Status::Code::kCorruption);
}

TEST_F(StoreFormatTest, TruncatedPayloadRejected) {
  ASSERT_TRUE(WriteSample().ok());
  auto bytes = ReadAll();
  bytes.resize(bytes.size() - 4);
  WriteAll(bytes);
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  auto reader = SectionReader::Parse(*file, FileKind::kGraph);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), Status::Code::kCorruption);
}

TEST_F(StoreFormatTest, NoFlippedByteCorruptsPayloadsSilently) {
  ASSERT_TRUE(WriteSample().ok());
  const auto pristine = ReadAll();
  // Flip each byte in turn. A flip either fails Parse with a clean Status
  // (header/table/payload corruption) or — for don't-care bytes such as
  // alignment padding and the reserved header field — leaves every payload
  // byte-identical. Silently serving corrupted data is never acceptable.
  for (size_t i = 0; i < pristine.size(); ++i) {
    auto bytes = pristine;
    bytes[i] ^= 0xFF;
    WriteAll(bytes);
    auto file = MappedFile::Open(path_);
    ASSERT_TRUE(file.ok());
    auto reader = SectionReader::Parse(*file, FileKind::kGraph);
    if (!reader.ok()) continue;
    auto alpha = reader->Typed<uint32_t>("alpha");
    auto beta = reader->Typed<double>("beta");
    ASSERT_TRUE(alpha.ok() && beta.ok()) << "flip at byte " << i;
    EXPECT_EQ(std::vector<uint32_t>(alpha->begin(), alpha->end()), payload_a_)
        << "silent corruption from flip at byte " << i;
    EXPECT_EQ(std::vector<double>(beta->begin(), beta->end()), payload_b_)
        << "silent corruption from flip at byte " << i;
  }
}

TEST_F(StoreFormatTest, UnknownSectionIsNotFound) {
  ASSERT_TRUE(WriteSample().ok());
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  auto reader = SectionReader::Parse(*file, FileKind::kGraph);
  ASSERT_TRUE(reader.ok());
  auto missing = reader->Raw("gamma");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), Status::Code::kNotFound);
}

TEST_F(StoreFormatTest, ElementSizeMismatchIsCorruption) {
  ASSERT_TRUE(WriteSample().ok());
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  auto reader = SectionReader::Parse(*file, FileKind::kGraph);
  ASSERT_TRUE(reader.ok());
  // "alpha" holds 20 bytes; not a multiple of sizeof(double).
  auto typed = reader->Typed<double>("alpha");
  ASSERT_FALSE(typed.ok());
  EXPECT_EQ(typed.status().code(), Status::Code::kCorruption);
}

// --- Every file kind the store writes goes through the same container
// validation; these pin the negative paths each kind relies on. ---

class FileKindFormatTest : public StoreFormatTest {
 protected:
  static constexpr FileKind kKinds[] = {FileKind::kGraph, FileKind::kSketch,
                                        FileKind::kMutationLog};

  Status WriteAs(FileKind kind) {
    payload_ = {10, 20, 30};
    std::vector<SectionRef> sections;
    sections.push_back(
        MakeSection("meta", std::span<const uint64_t>(payload_)));
    return WriteSectionFile(path_, kind, sections);
  }
  std::vector<uint64_t> payload_;
};

TEST_F(FileKindFormatTest, KindsAreNotInterchangeable) {
  for (const FileKind kind : kKinds) {
    SCOPED_TRACE(static_cast<uint32_t>(kind));
    ASSERT_TRUE(WriteAs(kind).ok());
    auto file = MappedFile::Open(path_);
    ASSERT_TRUE(file.ok());
    // A file of one kind is only that kind: every other expectation fails
    // with InvalidArgument (wrong kind), not Corruption (the file is
    // intact).
    for (const FileKind other : kKinds) {
      auto reader = SectionReader::Parse(*file, other);
      if (other == kind) {
        EXPECT_TRUE(reader.ok()) << reader.status().ToString();
      } else {
        ASSERT_FALSE(reader.ok());
        EXPECT_EQ(reader.status().code(), Status::Code::kInvalidArgument);
      }
    }
  }
}

TEST_F(FileKindFormatTest, VersionSkewRejected) {
  for (const FileKind kind : kKinds) {
    SCOPED_TRACE(static_cast<uint32_t>(kind));
    ASSERT_TRUE(WriteAs(kind).ok());
    auto bytes = ReadAll();
    // The format version is the uint32 at bytes [8, 12) of the header; a
    // future-version file must be rejected, never half-parsed.
    bytes[8] = static_cast<uint8_t>(kFormatVersion + 1);
    WriteAll(bytes);
    auto file = MappedFile::Open(path_);
    ASSERT_TRUE(file.ok());
    auto reader = SectionReader::Parse(*file, kind);
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().code(), Status::Code::kCorruption);
    EXPECT_NE(reader.status().ToString().find("version"), std::string::npos);
  }
}

TEST_F(FileKindFormatTest, PayloadChecksumMismatchRejected) {
  for (const FileKind kind : kKinds) {
    SCOPED_TRACE(static_cast<uint32_t>(kind));
    ASSERT_TRUE(WriteAs(kind).ok());
    // Flip the last payload byte (the header and section table sit at the
    // front; the final bytes of the file are always payload).
    auto bytes = ReadAll();
    bytes[bytes.size() - 1] ^= 0xFF;
    WriteAll(bytes);
    auto file = MappedFile::Open(path_);
    ASSERT_TRUE(file.ok());
    auto reader = SectionReader::Parse(*file, kind);
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().code(), Status::Code::kCorruption);
  }
}

TEST_F(StoreFormatTest, FailedRenameLeavesNoTempFile) {
  // A non-empty directory at the target path makes the final rename fail:
  // the write reports IOError and removes its temp file.
  const std::filesystem::path target = path_ + ".dir";
  std::filesystem::create_directories(target / "child");
  const Status st = WriteSectionFile(target.string(), FileKind::kGraph, {});
  EXPECT_EQ(st.code(), Status::Code::kIOError) << st.ToString();
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    EXPECT_NE(entry.path().filename().string().rfind(
                  target.filename().string() + ".tmp", 0),
              0u)
        << "leftover temp file: " << entry.path();
  }
  std::filesystem::remove_all(target);
}

TEST_F(StoreFormatTest, SectionNameTooLongRejectedOnWrite) {
  std::vector<SectionRef> sections;
  const uint32_t value = 7;
  sections.push_back({"this-name-is-way-too-long", &value, sizeof(value)});
  EXPECT_FALSE(WriteSectionFile(path_, FileKind::kGraph, sections).ok());
}

}  // namespace
}  // namespace voteopt::store
