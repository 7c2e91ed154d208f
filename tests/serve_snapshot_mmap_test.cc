#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "testing/random_structures.h"
#include "util/fault_injection.h"

namespace semdrift {
namespace {

constexpr size_t kHeaderBytes = 48;
constexpr size_t kSectionEntryBytes = 24;
constexpr int kInstanceNamesSectionIndex = 1;  // INAM in the fixed section order.
constexpr int kMutexSectionIndex = 8;          // MUTX.

/// Byte offset and size of one section's payload, read straight from the
/// section table of a serialized image.
void SectionSpan(const std::string& image, int section, uint64_t* offset,
                 uint64_t* size) {
  const char* entry = image.data() + kHeaderBytes +
                      static_cast<size_t>(section) * kSectionEntryBytes;
  std::memcpy(offset, entry + 8, sizeof(*offset));
  std::memcpy(size, entry + 16, sizeof(*size));
}

class SnapshotMmapTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    World world = property::RandomWorld(13);
    size_t ns = 0;
    KnowledgeBase kb = property::RandomKb(world, 13, &ns);
    auto image = BuildSnapshotImage(
        CompileSnapshotParts(kb, world, nullptr, SnapshotOptions{}));
    ASSERT_TRUE(image.ok());
    image_ = new std::string(std::move(*image));

    auto reader = SnapshotReader::OpenFromBuffer(*image_, "mmap-fixture");
    ASSERT_TRUE(reader.ok());
    workload_ = new std::vector<std::string>();
    mutex_query_ = new std::string();
    for (uint32_t c = 0; c < reader->num_concepts(); ++c) {
      const std::string name(reader->ConceptName(c));
      workload_->push_back("instances-of\t" + name + "\t4");
      if (reader->ConceptEnd(c) > reader->ConceptBegin(c)) {
        const std::string member(
            reader->InstanceName(reader->PairInstance(reader->ConceptBegin(c))));
        workload_->push_back("is-a\t" + member + "\t" + name);
        workload_->push_back("concepts-of\t" + member);
        workload_->push_back("drift-score\t" + member + "\t" + name);
      }
    }
    ASSERT_GE(reader->num_concepts(), 2u);
    *mutex_query_ = "mutex\t" + std::string(reader->ConceptName(0)) + "\t" +
                    std::string(reader->ConceptName(1));
  }
  static void TearDownTestSuite() {
    delete image_;
    delete workload_;
    delete mutex_query_;
  }

  /// Writes the fixture image (optionally with one byte XOR-flipped) to a
  /// fresh file and returns its path.
  static std::string WriteImage(const std::string& name,
                                size_t flip_offset = ~size_t{0}) {
    std::string bytes = *image_;
    if (flip_offset != ~size_t{0}) {
      EXPECT_LT(flip_offset, bytes.size());
      bytes[flip_offset] ^= 0x5a;
    }
    const std::string path = ::testing::TempDir() + "/mmap_" + name + ".bin";
    EXPECT_TRUE(WriteStringToFile(bytes, path).ok());
    return path;
  }

  static SnapshotOpenOptions MmapOptions(bool eager = false) {
    SnapshotOpenOptions options;
    options.source = SnapshotSource::kMmap;
    options.eager_verify = eager;
    return options;
  }

  static std::string* image_;
  static std::vector<std::string>* workload_;
  static std::string* mutex_query_;
};

std::string* SnapshotMmapTest::image_ = nullptr;
std::vector<std::string>* SnapshotMmapTest::workload_ = nullptr;
std::string* SnapshotMmapTest::mutex_query_ = nullptr;

TEST_F(SnapshotMmapTest, MmapAnswersAreByteIdenticalToReadPath) {
  const std::string path = WriteImage("identical");
  auto read_reader = SnapshotReader::Open(path);
  auto mmap_reader = SnapshotReader::Open(path, MmapOptions());
  ASSERT_TRUE(read_reader.ok()) << read_reader.status().ToString();
  ASSERT_TRUE(mmap_reader.ok()) << mmap_reader.status().ToString();
  EXPECT_FALSE(read_reader->mmap_backed());
  EXPECT_TRUE(mmap_reader->mmap_backed());

  QueryEngine read_engine(&*read_reader);
  QueryEngine mmap_engine(&*mmap_reader);
  for (const std::string& line : *workload_) {
    EXPECT_EQ(mmap_engine.Answer(line), read_engine.Answer(line)) << line;
  }
  EXPECT_EQ(mmap_engine.Answer(*mutex_query_), read_engine.Answer(*mutex_query_));
}

TEST_F(SnapshotMmapTest, DeferredVerifyConfinesDamageToTouchedSections) {
  uint64_t mutex_offset = 0, mutex_size = 0;
  SectionSpan(*image_, kMutexSectionIndex, &mutex_offset, &mutex_size);
  ASSERT_GT(mutex_size, 0u);
  // Flip a byte in the MUTX payload. The read path (whole-file eager CRC)
  // must refuse the file outright; the deferred mmap path must open, serve
  // every verb that doesn't touch MUTX, and fail only mutex queries.
  const std::string path = WriteImage(
      "mutx_corrupt", static_cast<size_t>(mutex_offset + mutex_size / 2));
  EXPECT_FALSE(SnapshotReader::Open(path).ok());

  auto reader = SnapshotReader::Open(path, MmapOptions());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  QueryEngine engine(&*reader);
  for (const std::string& line : *workload_) {
    EXPECT_EQ(engine.Answer(line).rfind("ERR", 0), std::string::npos) << line;
  }
  const std::string failed = engine.Answer(*mutex_query_);
  ASSERT_EQ(failed.rfind("ERR\tsnapshot: ", 0), 0u) << failed;
  EXPECT_NE(failed.find("MUTX"), std::string::npos) << failed;
  EXPECT_NE(failed.find(path), std::string::npos) << failed;
  EXPECT_NE(failed.find("byte offset"), std::string::npos) << failed;
  // Sticky: the reader stays failed (no flip-flopping on retry).
  EXPECT_EQ(engine.Answer(*mutex_query_), failed);
  // And sections verified before the failure keep serving.
  EXPECT_EQ(engine.Answer((*workload_)[0]).rfind("OK", 0), 0u);
}

TEST_F(SnapshotMmapTest, EagerVerifyFailsAtOpen) {
  uint64_t mutex_offset = 0, mutex_size = 0;
  SectionSpan(*image_, kMutexSectionIndex, &mutex_offset, &mutex_size);
  const std::string path = WriteImage(
      "eager_corrupt", static_cast<size_t>(mutex_offset + mutex_size / 2));
  auto reader = SnapshotReader::Open(path, MmapOptions(/*eager=*/true));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), Status::Code::kDataLoss);
}

TEST_F(SnapshotMmapTest, EagerVerifyOnCleanFileServesEverything) {
  const std::string path = WriteImage("eager_clean");
  auto reader = SnapshotReader::Open(path, MmapOptions(/*eager=*/true));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->VerifiedSections(), kSnapSecAll);
  QueryEngine engine(&*reader);
  EXPECT_EQ(engine.Answer((*workload_)[0]).rfind("OK", 0), 0u);
}

TEST_F(SnapshotMmapTest, RefusesNonRegularFiles) {
  const std::string dir = ::testing::TempDir() + "/mmap_a_directory";
  std::filesystem::create_directories(dir);
  auto reader = SnapshotReader::Open(dir, MmapOptions());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), Status::Code::kDataLoss);
  EXPECT_NE(reader.status().message().find("not a regular file"),
            std::string::npos)
      << reader.status().ToString();
}

TEST_F(SnapshotMmapTest, TruncationUnderTheMappingIsDetected) {
  const std::string path = WriteImage("truncated_under_map");
  auto reader = SnapshotReader::Open(path, MmapOptions());
  ASSERT_TRUE(reader.ok());
  // A publisher violating temp-and-rename truncates the file we mapped.
  // The next deferred verification must re-stat and refuse — reading the
  // vanished pages would SIGBUS.
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(image_->size() / 2)), 0);
  Status st = reader->EnsureSections(kSnapSecMutex);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kDataLoss);
  EXPECT_NE(st.message().find("resized"), std::string::npos) << st.ToString();
  // The failure is sticky even for sections verified afterwards-to-be-asked.
  EXPECT_FALSE(reader->EnsureSections(kSnapSecRank).ok());
}

TEST_F(SnapshotMmapTest, VerifiedSectionsProgressLazily) {
  const std::string path = WriteImage("progression");
  auto reader = SnapshotReader::Open(path, MmapOptions());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->VerifiedSections(), 0u);  // Nothing trusted yet.
  const uint32_t names =
      kSnapSecConceptNames | kSnapSecInstanceNames | kSnapSecNameSort;
  ASSERT_TRUE(reader->EnsureSections(names).ok());
  EXPECT_EQ(reader->VerifiedSections() & names, names);
  EXPECT_EQ(reader->VerifiedSections() & kSnapSecMutex, 0u);
  ASSERT_TRUE(reader->EnsureSections(kSnapSecAll).ok());
  EXPECT_EQ(reader->VerifiedSections(), kSnapSecAll);
  // Re-asking verified sections is a pure bitmask check (no re-hash) and
  // stays OK.
  EXPECT_TRUE(reader->EnsureSections(kSnapSecAll).ok());
}

TEST_F(SnapshotMmapTest, MmapReaderSurvivesMove) {
  const std::string path = WriteImage("moved");
  auto opened = SnapshotReader::Open(path, MmapOptions());
  ASSERT_TRUE(opened.ok());
  SnapshotReader moved = std::move(*opened);
  QueryEngine engine(&moved);
  EXPECT_EQ(engine.Answer((*workload_)[0]).rfind("OK", 0), 0u);
  EXPECT_TRUE(moved.mmap_backed());
}

TEST_F(SnapshotMmapTest, EmptyFileRejected) {
  const std::string path = ::testing::TempDir() + "/mmap_empty.bin";
  ASSERT_TRUE(WriteStringToFile("", path).ok());
  auto reader = SnapshotReader::Open(path, MmapOptions());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), Status::Code::kDataLoss);
}

/// A deferred-verify reader has not checked its section CRCs when it opens,
/// so PartsFromReader must verify them itself: copying a damaged INAM byte
/// into a names block would let BuildSnapshotImage frame it under fresh,
/// valid CRCs.
TEST_F(SnapshotMmapTest, PartsFromReaderRefusesUnverifiedDamage) {
  uint64_t names_offset = 0, names_size = 0;
  SectionSpan(*image_, kInstanceNamesSectionIndex, &names_offset, &names_size);
  ASSERT_GT(names_size, 0u);
  const std::string path =
      WriteImage("parts_inam_flip", static_cast<size_t>(names_offset + names_size - 1));
  auto reader = SnapshotReader::Open(path, MmapOptions());
  ASSERT_TRUE(reader.ok()) << "deferred open checks framing only: "
                           << reader.status().ToString();
  EXPECT_EQ(reader->VerifiedSections() & kSnapSecInstanceNames, 0u);
  auto parts = PartsFromReader(*reader);
  ASSERT_FALSE(parts.ok()) << "materialized parts from an unverified INAM";
  EXPECT_EQ(parts.status().code(), Status::Code::kDataLoss);
  EXPECT_NE(parts.status().message().find("INAM"), std::string::npos)
      << parts.status().ToString();

  // The intact file recovers parts that rebuild the file byte for byte.
  auto clean = SnapshotReader::Open(WriteImage("parts_clean"), MmapOptions());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  auto clean_parts = PartsFromReader(*clean);
  ASSERT_TRUE(clean_parts.ok()) << clean_parts.status().ToString();
  EXPECT_EQ(clean->VerifiedSections(), static_cast<uint32_t>(kSnapSecAll));
  auto rebuilt = BuildSnapshotImage(*clean_parts);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(*rebuilt, *image_);
}

}  // namespace
}  // namespace semdrift
