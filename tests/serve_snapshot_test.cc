#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "mutex/mutex_index.h"
#include "rank/scorers.h"
#include "serve/snapshot.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace semdrift {
namespace {

/// Shared, expensive state: one extracted KB and one written snapshot.
class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExperimentConfig config = PaperScaleConfig(0.05);
    config.seed = 31;
    experiment_ = Experiment::Build(config).release();
    kb_ = new KnowledgeBase(experiment_->Extract());
    path_ = ::testing::TempDir() + "/serve_snapshot_test.bin";
    Status written =
        WriteSnapshot(*kb_, experiment_->world(), nullptr, SnapshotOptions{}, path_);
    ASSERT_TRUE(written.ok()) << written.ToString();
  }
  static void TearDownTestSuite() {
    delete kb_;
    delete experiment_;
    kb_ = nullptr;
    experiment_ = nullptr;
  }

  /// The writer's view of a concept's live pairs: world-bounded, id-sorted.
  static std::vector<InstanceId> LiveSorted(ConceptId c) {
    std::vector<InstanceId> live = kb_->LiveInstancesOf(c);
    live.erase(std::remove_if(live.begin(), live.end(),
                              [&](InstanceId e) {
                                return e.value >= experiment_->world().num_instances();
                              }),
               live.end());
    std::sort(live.begin(), live.end());
    return live;
  }

  static Experiment* experiment_;
  static KnowledgeBase* kb_;
  static std::string path_;
};

Experiment* SnapshotTest::experiment_ = nullptr;
KnowledgeBase* SnapshotTest::kb_ = nullptr;
std::string SnapshotTest::path_;

TEST_F(SnapshotTest, RoundTripMatchesKnowledgeBase) {
  auto opened = SnapshotReader::Open(path_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const SnapshotReader& snap = *opened;
  const World& world = experiment_->world();

  ASSERT_EQ(snap.num_concepts(), world.num_concepts());
  ASSERT_EQ(snap.num_instances(), world.num_instances());
  EXPECT_GT(snap.num_pairs(), 0u);

  uint64_t total_pairs = 0;
  for (uint32_t ci = 0; ci < snap.num_concepts(); ++ci) {
    ConceptId c(ci);
    EXPECT_EQ(snap.ConceptName(ci), world.ConceptName(c));
    EXPECT_EQ(snap.FindConcept(world.ConceptName(c)), ci);

    // Forward row = the KB's live instances of c, for every pair, with the
    // exact checked walk scores and support counts.
    std::vector<InstanceId> live = LiveSorted(c);
    ASSERT_EQ(snap.ConceptEnd(ci) - snap.ConceptBegin(ci), live.size());
    ConceptScores scores =
        ScoreConceptChecked(*kb_, c, RankModel::kRandomWalk, WalkParams{});
    for (size_t i = 0; i < live.size(); ++i) {
      const uint64_t pair = snap.ConceptBegin(ci) + i;
      ASSERT_EQ(snap.PairInstance(pair), live[i].value);
      auto it = scores.scores.find(live[i]);
      const double expected = it == scores.scores.end() ? 0.0 : it->second;
      EXPECT_EQ(snap.PairScore(pair), expected);
      IsAPair kb_pair{c, live[i]};
      EXPECT_EQ(snap.PairSupport(pair), static_cast<uint32_t>(kb_->Count(kb_pair)));
      EXPECT_EQ(snap.PairIter1(pair),
                static_cast<uint32_t>(kb_->Iter1Count(kb_pair)));
      EXPECT_EQ(snap.FindPair(ci, live[i].value), pair);
    }
    total_pairs += live.size();

    // Rank slice: the same pairs in (score desc, instance asc) order.
    std::vector<uint64_t> expected_order(live.size());
    for (size_t i = 0; i < live.size(); ++i) {
      expected_order[i] = snap.ConceptBegin(ci) + i;
    }
    std::sort(expected_order.begin(), expected_order.end(),
              [&](uint64_t a, uint64_t b) {
                if (snap.PairScore(a) != snap.PairScore(b)) {
                  return snap.PairScore(a) > snap.PairScore(b);
                }
                return snap.PairInstance(a) < snap.PairInstance(b);
              });
    for (size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(snap.RankOrder()[snap.ConceptBegin(ci) + i], expected_order[i]);
    }
  }
  EXPECT_EQ(snap.num_pairs(), total_pairs);

  // Inverse rows agree with KB membership for every instance.
  for (uint32_t e = 0; e < snap.num_instances(); ++e) {
    EXPECT_EQ(snap.InstanceName(e), world.InstanceName(InstanceId(e)));
    for (uint64_t i = snap.InstanceBegin(e); i < snap.InstanceEnd(e); ++i) {
      const uint32_t c = snap.InvConcept(i);
      EXPECT_TRUE(kb_->Contains(IsAPair{ConceptId(c), InstanceId(e)}));
      EXPECT_EQ(snap.PairInstance(snap.InvPairIndex(i)), e);
    }
  }

  // Name lookups hit for a sample and miss for a non-name.
  EXPECT_EQ(snap.FindInstance(world.InstanceName(InstanceId(0))), 0u);
  EXPECT_EQ(snap.FindConcept("no such concept exists"), SnapshotReader::kNoId);
  EXPECT_EQ(snap.FindInstance(""), SnapshotReader::kNoId);
}

TEST_F(SnapshotTest, MutexTableMatchesMutexIndex) {
  auto opened = SnapshotReader::Open(path_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const SnapshotReader& snap = *opened;
  MutexIndex index(*kb_, experiment_->world().num_concepts(), MutexParams{});
  for (uint32_t a = 0; a < snap.num_concepts(); ++a) {
    EXPECT_EQ(snap.MutexUsable(a), index.Usable(ConceptId(a)));
    for (uint32_t b = 0; b < snap.num_concepts(); ++b) {
      ASSERT_EQ(snap.IsMutex(a, b), index.IsMutex(ConceptId(a), ConceptId(b)))
          << "concepts " << a << " and " << b;
    }
  }
}

TEST_F(SnapshotTest, QuarantineFlagsComeFromHealthReport) {
  RunHealthReport health;
  health.Record(3, ConceptOutcome::kQuarantined, 2, PipelineStage::kScoreWarm,
                "test");
  health.Record(7, ConceptOutcome::kQuarantined, 1, PipelineStage::kDetectorScore,
                "test");
  health.Record(9, ConceptOutcome::kDegraded, 1, PipelineStage::kScoreWarm, "test");
  std::string path = ::testing::TempDir() + "/serve_snapshot_quarantine.bin";
  Status written =
      WriteSnapshot(*kb_, experiment_->world(), &health, SnapshotOptions{}, path);
  ASSERT_TRUE(written.ok()) << written.ToString();
  auto opened = SnapshotReader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  for (uint32_t c = 0; c < opened->num_concepts(); ++c) {
    EXPECT_EQ(opened->ConceptQuarantined(c), c == 3 || c == 7) << "concept " << c;
  }
}

TEST_F(SnapshotTest, WriteServingSnapshotValidatesThenWrites) {
  std::string path = ::testing::TempDir() + "/serve_snapshot_via_eval.bin";
  Status written = WriteServingSnapshot(*kb_, experiment_->world(),
                                        experiment_->corpus().sentences.size(),
                                        nullptr, path);
  ASSERT_TRUE(written.ok()) << written.ToString();
  auto opened = SnapshotReader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->num_concepts(), experiment_->world().num_concepts());
}

TEST_F(SnapshotTest, TruncationIsAlwaysRejected) {
  auto pristine = ReadFileToString(path_);
  ASSERT_TRUE(pristine.ok());
  std::string damaged_path = ::testing::TempDir() + "/serve_snapshot_truncated.bin";
  // Sweep cut points across the whole file, including cuts inside the
  // header, the section table, each section, and the footer.
  for (size_t keep = 0; keep < pristine->size();
       keep += std::max<size_t>(1, pristine->size() / 97)) {
    ASSERT_TRUE(WriteStringToFile(pristine->substr(0, keep), damaged_path).ok());
    auto opened = SnapshotReader::Open(damaged_path);
    ASSERT_FALSE(opened.ok()) << "survived truncation to " << keep << " bytes";
    EXPECT_EQ(opened.status().code(), Status::Code::kDataLoss);
  }
}

TEST_F(SnapshotTest, SeededCorruptionIsAlwaysRejected) {
  auto pristine = ReadFileToString(path_);
  ASSERT_TRUE(pristine.ok());
  std::string damaged_path = ::testing::TempDir() + "/serve_snapshot_corrupt.bin";
  int rejected = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    FaultInjector injector(0x5eed ^ (0x9e3779b97f4a7c15ULL * (seed + 1)));
    FaultKind kind;
    std::string corrupted = injector.CorruptRandom(*pristine, &kind);
    if (corrupted == *pristine) continue;  // Identity corruption: nothing to detect.
    ASSERT_TRUE(WriteStringToFile(corrupted, damaged_path).ok());
    auto opened = SnapshotReader::Open(damaged_path);
    ASSERT_FALSE(opened.ok()) << "survived fault kind " << static_cast<int>(kind)
                              << " at seed " << seed;
    EXPECT_EQ(opened.status().code(), Status::Code::kDataLoss);
    ++rejected;
  }
  EXPECT_GT(rejected, 40);  // The sweep must actually exercise corruption.
}

TEST_F(SnapshotTest, WriterLeavesNoPartialFileBehind) {
  // The temp-and-rename contract: after a successful write, no .snap-tmp
  // carcass remains next to the snapshot.
  EXPECT_FALSE(std::filesystem::exists(path_ + ".snap-tmp"));
}

/// The permutation sorting by (name, id) with std::string comparison: the
/// order the names block's prefix-key sort must reproduce.
std::vector<uint32_t> NameIdOrder(const std::vector<std::string>& names) {
  std::vector<uint32_t> order(names.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (names[a] != names[b]) return names[a] < names[b];
    return a < b;
  });
  return order;
}

std::vector<uint32_t> DecodeU32s(std::string_view bytes) {
  std::vector<uint32_t> out(bytes.size() / 4);
  for (size_t i = 0; i < out.size(); ++i) {
    uint32_t v = 0;
    for (int b = 3; b >= 0; --b) {
      v = (v << 8) | static_cast<unsigned char>(bytes[4 * i + b]);
    }
    out[i] = v;
  }
  return out;
}

std::vector<std::string_view> Views(const std::vector<std::string>& names) {
  return std::vector<std::string_view>(names.begin(), names.end());
}

/// Checks the block's NSRT permutations against NameIdOrder, then frames the
/// names as a pairless snapshot: the reader's Validate() accepts the order
/// and every name is found.
void ExpectNameSortMatchesComparator(const std::vector<std::string>& concepts,
                                     const std::vector<std::string>& instances) {
  SnapshotParts parts;
  parts.names = SnapshotNames::Build(Views(concepts), Views(instances));
  const std::vector<uint32_t> sorted = DecodeU32s(parts.names->name_sort());
  ASSERT_EQ(sorted.size(), concepts.size() + instances.size());
  std::vector<uint32_t> expected = NameIdOrder(concepts);
  const std::vector<uint32_t> expected_instances = NameIdOrder(instances);
  expected.insert(expected.end(), expected_instances.begin(), expected_instances.end());
  EXPECT_EQ(sorted, expected);

  parts.fwd_rows.assign(concepts.size() + 1, 0);
  parts.flags.assign(concepts.size(), 0);
  auto image = BuildSnapshotImage(parts);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  auto reader = SnapshotReader::OpenFromBuffer(*image, "names");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  for (size_t e = 0; e < instances.size(); ++e) {
    const uint32_t found = reader->FindInstance(instances[e]);
    ASSERT_NE(found, SnapshotReader::kNoId) << "instance " << e;
    EXPECT_EQ(reader->InstanceName(found), instances[e]);
  }
  for (size_t c = 0; c < concepts.size(); ++c) {
    EXPECT_NE(reader->FindConcept(concepts[c]), SnapshotReader::kNoId) << "concept " << c;
  }
}

TEST(SnapshotNamesTest, PrefixKeySortMatchesNameIdComparator) {
  using namespace std::string_literals;
  const std::vector<std::string> concepts = {"zebra", "ant", "ant", "Ant", "", "b"};
  const std::vector<std::string> instances = {
      // Shorter than the 8-byte prefix, and prefixes of one another.
      "a", "ab", "", "abc", "a",
      // Sharing the whole 8-byte prefix, differing after it.
      "prefix01-z", "prefix01-a", "prefix01", "prefix01\x01", "prefix01-a",
      // High-bit UTF-8 bytes sort after ASCII, as unsigned bytes.
      "caf\xc3\xa9", "cafe", "caf\xff", "\xe6\x97\xa5\xe6\x9c\xac",
      "\xe6\x97\xa5", "\x7f",
      // Embedded NULs: equal to zero padding in the prefix key, so only the
      // full comparison tells "x" from "x\0" and "x\0\0".
      "x\0"s, "x"s, "x\0\0"s, "x\0y"s, "\0"s, "\0\0\0\0\0\0\0\0\0"s,
      // Exact duplicates: ties break by id.
      "dup", "dup", "dup"};
  ExpectNameSortMatchesComparator(concepts, instances);
}

TEST(SnapshotNamesTest, PrefixKeySortMatchesComparatorOnRandomNames) {
  // A four-symbol alphabet with NUL and a high-bit byte and lengths around
  // the 8-byte prefix make prefix collisions, padding ties and duplicates
  // common.
  const char alphabet[] = {'\0', 'a', 'b', static_cast<char>(0xc3)};
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::string> concepts(rng.NextBounded(30));
    std::vector<std::string> instances(200 + rng.NextBounded(200));
    for (auto* names : {&concepts, &instances}) {
      for (std::string& name : *names) {
        name.resize(rng.NextBounded(13));
        for (char& ch : name) ch = alphabet[rng.NextBounded(4)];
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectNameSortMatchesComparator(concepts, instances);
  }
}

/// A default-constructed SnapshotParts carries no names block: it describes
/// no world, and the image builder refuses it.
TEST(SnapshotNamesTest, DefaultPartsHaveNoWorld) {
  const SnapshotParts none;
  EXPECT_EQ(none.num_concepts(), 0u);
  EXPECT_EQ(none.num_instances(), 0u);
  auto image = BuildSnapshotImage(none);
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), Status::Code::kInternal);
}

}  // namespace
}  // namespace semdrift
