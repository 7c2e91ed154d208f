#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/snapshot.h"
#include "serve/snapshot_delta.h"
#include "serve/snapshot_manager.h"
#include "testing/random_structures.h"
#include "util/crc32.h"
#include "util/fault_injection.h"

namespace semdrift {
namespace {

/// Two snapshot-parts states over the same world: the base compiled from one
/// random KB, the next from an independent KB (different seed stream), so
/// the diff exercises inserts, removes, column changes and flag changes at
/// once.
struct PartsPair {
  SnapshotParts base;
  SnapshotParts next;
};

PartsPair MakePartsPair(uint64_t seed) {
  World world = property::RandomWorld(seed);
  size_t ns_a = 0, ns_b = 0;
  KnowledgeBase kb_a = property::RandomKb(world, seed, &ns_a);
  KnowledgeBase kb_b = property::RandomKb(world, seed + 1000, &ns_b);
  RunHealthReport health_a = property::RandomHealth(world, seed);
  RunHealthReport health_b = property::RandomHealth(world, seed + 1000);
  PartsPair pair;
  pair.base = CompileSnapshotParts(kb_a, world, &health_a, SnapshotOptions{});
  pair.next = CompileSnapshotParts(kb_b, world, &health_b, SnapshotOptions{});
  return pair;
}

/// Round-trips a delta through its file format and returns the loaded copy.
Result<SnapshotDelta> WriteAndLoad(const SnapshotDelta& delta,
                                   const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  Status written = WriteSnapshotDeltaFile(delta, path);
  if (!written.ok()) return written;
  return LoadSnapshotDelta(path);
}

/// The core property: base + (file round-tripped) delta materializes the
/// byte-exact image a direct build of the next parts produces. Byte
/// identity is what lets the chain keep strong CRC base bindings.
TEST(SnapshotDeltaTest, DiffApplyRoundTripIsByteIdenticalToDirectImage) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    PartsPair parts = MakePartsPair(seed);
    auto base_image = BuildSnapshotImage(parts.base);
    auto next_image = BuildSnapshotImage(parts.next);
    ASSERT_TRUE(base_image.ok()) << base_image.status().ToString();
    ASSERT_TRUE(next_image.ok()) << next_image.status().ToString();

    auto delta = DiffSnapshotParts(parts.base, parts.next);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    delta->base_generation = 7;
    delta->base_crc32 = Crc32Of(*base_image);
    delta->generation = 8;
    auto loaded =
        WriteAndLoad(*delta, "delta_prop_" + std::to_string(seed) + ".bin");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->num_records(), delta->num_records());

    auto materialized =
        MaterializeSnapshotDelta(*loaded, parts.base, 7, Crc32Of(*base_image));
    ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
    EXPECT_EQ(*materialized, *next_image);

    // What the applier produced must also pass the deep validator.
    auto reopened = SnapshotReader::OpenFromBuffer(*materialized, "materialized");
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  }
}

TEST(SnapshotDeltaTest, SelfDiffIsEmptyAndMaterializesTheBase) {
  PartsPair parts = MakePartsPair(3);
  auto base_image = BuildSnapshotImage(parts.base);
  ASSERT_TRUE(base_image.ok());
  auto delta = DiffSnapshotParts(parts.base, parts.base);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->num_records(), 0u);
  delta->base_generation = 1;
  delta->base_crc32 = Crc32Of(*base_image);
  delta->generation = 2;
  auto loaded = WriteAndLoad(*delta, "delta_empty.bin");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto materialized =
      MaterializeSnapshotDelta(*loaded, parts.base, 1, Crc32Of(*base_image));
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(*materialized, *base_image);
}

TEST(SnapshotDeltaTest, WrongBaseBindingIsRefused) {
  PartsPair parts = MakePartsPair(4);
  auto base_image = BuildSnapshotImage(parts.base);
  ASSERT_TRUE(base_image.ok());
  auto delta = DiffSnapshotParts(parts.base, parts.next);
  ASSERT_TRUE(delta.ok());
  delta->base_generation = 1;
  delta->base_crc32 = Crc32Of(*base_image);
  delta->generation = 2;

  // Wrong image CRC: same generation number, different bytes.
  auto wrong_crc = MaterializeSnapshotDelta(*delta, parts.base, 1,
                                            Crc32Of(*base_image) ^ 1u);
  ASSERT_FALSE(wrong_crc.ok());
  EXPECT_EQ(wrong_crc.status().code(), Status::Code::kDataLoss);

  // Wrong generation number: right bytes, wrong position in the chain.
  auto wrong_gen =
      MaterializeSnapshotDelta(*delta, parts.base, 2, Crc32Of(*base_image));
  ASSERT_FALSE(wrong_gen.ok());
  EXPECT_EQ(wrong_gen.status().code(), Status::Code::kDataLoss);
}

/// A two-delta chain applied stepwise equals the direct build of the final
/// state — the property the SnapshotManager's contiguous-chain walk rests on.
TEST(SnapshotDeltaTest, DeltaChainMatchesDirectBuild) {
  World world = property::RandomWorld(9);
  size_t ns = 0;
  KnowledgeBase kb_a = property::RandomKb(world, 9, &ns);
  KnowledgeBase kb_b = property::RandomKb(world, 1009, &ns);
  KnowledgeBase kb_c = property::RandomKb(world, 2009, &ns);
  SnapshotParts a = CompileSnapshotParts(kb_a, world, nullptr, SnapshotOptions{});
  SnapshotParts b = CompileSnapshotParts(kb_b, world, nullptr, SnapshotOptions{});
  SnapshotParts c = CompileSnapshotParts(kb_c, world, nullptr, SnapshotOptions{});
  auto image_a = BuildSnapshotImage(a);
  auto image_b = BuildSnapshotImage(b);
  auto image_c = BuildSnapshotImage(c);
  ASSERT_TRUE(image_a.ok() && image_b.ok() && image_c.ok());

  auto d_ab = DiffSnapshotParts(a, b);
  auto d_bc = DiffSnapshotParts(b, c);
  ASSERT_TRUE(d_ab.ok() && d_bc.ok());
  d_ab->base_generation = 1;
  d_ab->base_crc32 = Crc32Of(*image_a);
  d_ab->generation = 2;
  d_bc->base_generation = 2;
  d_bc->base_crc32 = Crc32Of(*image_b);
  d_bc->generation = 3;

  auto step1 = MaterializeSnapshotDelta(*d_ab, a, 1, Crc32Of(*image_a));
  ASSERT_TRUE(step1.ok()) << step1.status().ToString();
  EXPECT_EQ(*step1, *image_b);
  auto mid = SnapshotReader::OpenFromBuffer(*step1, "gen-2");
  ASSERT_TRUE(mid.ok());
  auto mid_parts = PartsFromReader(*mid);
  ASSERT_TRUE(mid_parts.ok()) << mid_parts.status().ToString();
  auto step2 = MaterializeSnapshotDelta(*d_bc, *mid_parts, 2, Crc32Of(*step1));
  ASSERT_TRUE(step2.ok()) << step2.status().ToString();
  EXPECT_EQ(*step2, *image_c);
}

/// The world's names, for building names blocks of edited worlds.
void WorldNames(const World& world, std::vector<std::string>* concepts,
                std::vector<std::string>* instances) {
  for (uint32_t c = 0; c < world.num_concepts(); ++c) {
    concepts->push_back(world.ConceptName(ConceptId(c)));
  }
  for (uint32_t e = 0; e < world.num_instances(); ++e) {
    instances->push_back(world.InstanceName(InstanceId(e)));
  }
}

std::shared_ptr<const SnapshotNames> BuildNames(
    const std::vector<std::string>& concepts, const std::vector<std::string>& instances) {
  return SnapshotNames::Build(
      std::vector<std::string_view>(concepts.begin(), concepts.end()),
      std::vector<std::string_view>(instances.begin(), instances.end()));
}

/// A delta can only carry names unchanged, so diffing across worlds must be
/// refused — whether the worlds differ by one renamed instance or by one
/// extra instance. Separately built blocks of one world are the same world.
TEST(SnapshotDeltaTest, DiffRefusesAnotherWorld) {
  World world = property::RandomWorld(21);
  size_t ns = 0;
  KnowledgeBase kb = property::RandomKb(world, 21, &ns);
  const SnapshotParts base = CompileSnapshotParts(kb, world, nullptr, SnapshotOptions{});
  std::vector<std::string> concepts, instances;
  WorldNames(world, &concepts, &instances);
  ASSERT_FALSE(instances.empty());

  SnapshotParts same = base;
  same.names = BuildNames(concepts, instances);
  ASSERT_NE(same.names.get(), base.names.get());
  auto same_world = DiffSnapshotParts(base, same);
  ASSERT_TRUE(same_world.ok()) << same_world.status().ToString();
  EXPECT_EQ(same_world->num_records(), 0u);

  std::vector<std::string> renamed = instances;
  renamed[renamed.size() / 2] += "-renamed";
  SnapshotParts renamed_parts = base;
  renamed_parts.names = BuildNames(concepts, renamed);
  auto renamed_diff = DiffSnapshotParts(base, renamed_parts);
  ASSERT_FALSE(renamed_diff.ok());
  EXPECT_EQ(renamed_diff.status().code(), Status::Code::kInvalidArgument);

  std::vector<std::string> extra = instances;
  extra.push_back("extra-instance");
  SnapshotParts extra_parts = base;
  extra_parts.names = BuildNames(concepts, extra);
  auto extra_diff = DiffSnapshotParts(base, extra_parts);
  ASSERT_FALSE(extra_diff.ok());
  EXPECT_EQ(extra_diff.status().code(), Status::Code::kInvalidArgument);
  auto reverse_diff = DiffSnapshotParts(extra_parts, base);
  ASSERT_FALSE(reverse_diff.ok());
  EXPECT_EQ(reverse_diff.status().code(), Status::Code::kInvalidArgument);
  auto no_world = DiffSnapshotParts(base, SnapshotParts{});
  ASSERT_FALSE(no_world.ok());
  EXPECT_EQ(no_world.status().code(), Status::Code::kInvalidArgument);
}

/// A 16-delta chain installed through SnapshotManager::Poll serves, at every
/// generation, the image a direct build of that generation's parts writes —
/// and every delta generation shares one names block: none re-encodes names.
/// Also checks the install phase histograms: registered by construction,
/// then observed by each install.
TEST(SnapshotDeltaTest, PollChainIsByteIdenticalAndSharesOneNamesBlock) {
  constexpr uint64_t kGenerations = 17;
  World world = property::RandomWorld(33);
  std::vector<SnapshotParts> parts;
  std::vector<std::string> images;
  for (uint64_t g = 1; g <= kGenerations; ++g) {
    size_t ns = 0;
    KnowledgeBase kb = property::RandomKb(world, 33 + 1000 * g, &ns);
    parts.push_back(CompileSnapshotParts(kb, world, nullptr, SnapshotOptions{}));
    auto image = BuildSnapshotImage(parts.back());
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    images.push_back(std::move(*image));
  }

  const std::string dir = ::testing::TempDir() + "/delta_poll_chain";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  ASSERT_TRUE(PublishSnapshotImage(images[0], dir + "/snap-1.bin").ok());

  const char* const kPhases[] = {"serve.install.read_ns", "serve.install.parse_ns",
                                 "serve.install.materialize_ns",
                                 "serve.install.open_ns"};
  SnapshotManagerOptions options;
  options.dir = dir;
  SnapshotManager manager(options);
  uint64_t before[4];
  for (int i = 0; i < 4; ++i) {
    HistogramSnapshot h = GlobalMetrics().HistogramValues(kPhases[i]);
    EXPECT_FALSE(h.buckets.empty()) << kPhases[i] << " not registered by construction";
    before[i] = h.count;
  }
  ASSERT_TRUE(manager.LoadInitial().ok());

  std::shared_ptr<const SnapshotNames> chain_names;
  for (uint64_t g = 2; g <= kGenerations; ++g) {
    SCOPED_TRACE("generation " + std::to_string(g));
    auto delta = DiffSnapshotParts(parts[g - 2], parts[g - 1]);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    delta->base_generation = g - 1;
    delta->base_crc32 = Crc32Of(images[g - 2]);
    delta->generation = g;
    const std::string path = dir + "/delta-" + std::to_string(g) + ".bin";
    ASSERT_TRUE(WriteSnapshotDeltaFile(*delta, path).ok());
    SnapshotPollResult poll = manager.Poll();
    ASSERT_EQ(poll.swaps, 1);
    ASSERT_EQ(poll.failed, 0);
    std::shared_ptr<const ServingGeneration> current = manager.Current();
    ASSERT_EQ(current->generation, g);
    EXPECT_EQ(current->image_crc32, Crc32Of(images[g - 1]));
    EXPECT_EQ(current->reader.file_bytes(), images[g - 1].size());
    auto served = PartsFromReader(current->reader);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    auto rebuilt = BuildSnapshotImage(*served);
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_EQ(*rebuilt, images[g - 1]) << "served image differs from the direct build";

    ASSERT_NE(current->names, nullptr);
    if (chain_names == nullptr) chain_names = current->names;
    EXPECT_EQ(current->names.get(), chain_names.get()) << "names block re-made";
    EXPECT_TRUE(current->names->SameAs(*parts[g - 1].names));

    if (g == 2) {
      // One full install and one delta install so far.
      const uint64_t want[4] = {1, 1, 1, 2};
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(GlobalMetrics().HistogramValues(kPhases[i]).count - before[i], want[i])
            << kPhases[i];
      }
    }
  }
}

/// 60-seed corruption sweep over the delta file itself: every corrupted
/// publish must either be rejected cleanly at load/materialize time, or — in
/// the rare case the damage is survivable — still materialize an image that
/// passes the deep validator. Nothing in between.
TEST(SnapshotDeltaTest, CorruptionSweepNeverMaterializesAnInvalidImage) {
  PartsPair parts = MakePartsPair(12);
  auto base_image = BuildSnapshotImage(parts.base);
  ASSERT_TRUE(base_image.ok());
  const uint32_t base_crc = Crc32Of(*base_image);
  auto delta = DiffSnapshotParts(parts.base, parts.next);
  ASSERT_TRUE(delta.ok());
  ASSERT_GT(delta->num_records(), 0u);
  delta->base_generation = 1;
  delta->base_crc32 = base_crc;
  delta->generation = 2;
  const std::string pristine_path = ::testing::TempDir() + "/delta_sweep.bin";
  ASSERT_TRUE(WriteSnapshotDeltaFile(*delta, pristine_path).ok());
  auto pristine = ReadFileToString(pristine_path);
  ASSERT_TRUE(pristine.ok());

  int rejected = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FaultInjector injector(0x5eed ^ (0x9e3779b97f4a7c15ULL * (seed + 1)));
    FaultKind kind;
    std::string corrupted = injector.CorruptRandom(*pristine, &kind);
    if (corrupted == *pristine) continue;  // Identity corruption, nothing to test.
    const std::string path =
        ::testing::TempDir() + "/delta_sweep_" + std::to_string(seed) + ".bin";
    ASSERT_TRUE(WriteStringToFile(corrupted, path).ok());
    auto loaded = LoadSnapshotDelta(path);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), Status::Code::kDataLoss)
          << loaded.status().ToString();
      rejected++;
      continue;
    }
    auto materialized = MaterializeSnapshotDelta(*loaded, parts.base, 1, base_crc);
    if (!materialized.ok()) {
      rejected++;
      continue;
    }
    auto reopened = SnapshotReader::OpenFromBuffer(*materialized, path);
    EXPECT_TRUE(reopened.ok())
        << "corrupted delta materialized an invalid image: "
        << reopened.status().ToString();
  }
  // The framed checksum catches essentially everything; a low rejection
  // count would mean the sweep stopped exercising the strict loader.
  EXPECT_GT(rejected, 40);
}

}  // namespace
}  // namespace semdrift
