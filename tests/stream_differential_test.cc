#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "corpus/world.h"
#include "dp/cleaner.h"
#include "extract/extractor.h"
#include "kb/knowledge_base.h"
#include "obs/trace.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"
#include "stream/stream.h"
#include "text/sentence.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace semdrift {
namespace {

/// The streaming contract under test: a StreamPipeline fed the corpus in
/// epoch slices must end byte-identical to one batch run over the whole
/// corpus — same extraction records, same snapshot image — regardless of how
/// the slices are cut and how many worker threads execute the rounds.
/// Incremental epochs are allowed to drift in between (bounded, scoped
/// re-detection); the final rebuild epoch retires all of it.

struct Schedule {
  const char* name;
  /// Cumulative corpus fractions per epoch boundary; last entry must be 1.0.
  std::vector<double> cuts;
};

std::vector<Schedule> Schedules() {
  return {
      {"even-4", {0.25, 0.5, 0.75, 1.0}},
      {"skewed-6", {0.5, 0.6, 0.7, 0.8, 0.9, 1.0}},
      {"many-10", {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}},
  };
}

/// Small worlds keep the cross product (seeds × schedules × thread counts)
/// inside a test budget while still exercising polysemy, twins and
/// multi-round cleaning.
World MakeWorld(uint64_t seed) {
  WorldSpec spec;
  spec.num_concepts = 10 + static_cast<int>(seed % 6);
  spec.min_instances = 6;
  spec.max_instances = 18;
  Rng rng(0xd1f ^ (seed * 0x9e3779b97f4a7c15ULL));
  return GenerateWorld(spec, &rng);
}

std::vector<Sentence> MakeSentences(const World& world, uint64_t seed) {
  CorpusSpec spec;
  spec.num_sentences = 220 + static_cast<int>(seed % 5) * 40;
  spec.render_text = false;
  Rng rng(0xc0 ^ (seed * 0x2545f4914f6cdd1dULL));
  Corpus corpus = GenerateCorpus(world, spec, &rng);
  std::vector<Sentence> out;
  out.reserve(corpus.sentences.size());
  for (const Sentence& s : corpus.sentences.sentences()) out.push_back(s);
  return out;
}

ExtractorOptions TestExtractorOptions() {
  ExtractorOptions options;
  options.max_iterations = 5;
  return options;
}

CleanerOptions TestCleanerOptions() {
  CleanerOptions options;
  options.max_rounds = 2;
  return options;
}

std::vector<ConceptId> AllConcepts(const World& world) {
  std::vector<ConceptId> scope;
  scope.reserve(world.num_concepts());
  for (size_t c = 0; c < world.num_concepts(); ++c) {
    scope.push_back(ConceptId{static_cast<uint32_t>(c)});
  }
  return scope;
}

struct BatchResult {
  KnowledgeBase kb;
  std::string image;
};

/// One-shot reference: extract over the full corpus, clean every concept,
/// compile the snapshot — exactly what `semdrift run` does.
BatchResult RunBatch(const World& world, const std::vector<Sentence>& all) {
  SentenceStore store;
  for (const Sentence& s : all) store.Add(s);
  BatchResult result;
  IterativeExtractor extractor(&store, TestExtractorOptions());
  extractor.Run(&result.kb);
  DpCleaner cleaner(
      &store,
      [&world](const IsAPair& pair) {
        return world.IsVerified(pair.concept_id, pair.instance);
      },
      world.num_concepts(), TestCleanerOptions());
  cleaner.Clean(&result.kb, AllConcepts(world));
  auto image = BuildSnapshotImage(
      CompileSnapshotParts(result.kb, world, nullptr, SnapshotOptions{}));
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  if (image.ok()) result.image = std::move(*image);
  return result;
}

/// Splits `all` into epoch deltas at the schedule's cumulative cuts.
std::vector<std::vector<Sentence>> SplitEpochs(const std::vector<Sentence>& all,
                                               const std::vector<double>& cuts) {
  std::vector<std::vector<Sentence>> epochs;
  size_t begin = 0;
  for (double cut : cuts) {
    size_t end = cut >= 1.0 ? all.size()
                            : static_cast<size_t>(cut * static_cast<double>(
                                                            all.size()));
    epochs.emplace_back(all.begin() + static_cast<long>(begin),
                        all.begin() + static_cast<long>(end));
    begin = end;
  }
  return epochs;
}

void ExpectSameRecords(const KnowledgeBase& got, const KnowledgeBase& want) {
  ASSERT_EQ(got.num_records(), want.num_records());
  for (size_t i = 0; i < want.records().size(); ++i) {
    const ExtractionRecord& g = got.records()[i];
    const ExtractionRecord& w = want.records()[i];
    ASSERT_EQ(g.id, w.id) << "record " << i;
    ASSERT_EQ(g.sentence.value, w.sentence.value) << "record " << i;
    ASSERT_EQ(g.concept_id.value, w.concept_id.value) << "record " << i;
    ASSERT_EQ(g.iteration, w.iteration) << "record " << i;
    ASSERT_EQ(g.instances, w.instances) << "record " << i;
    ASSERT_EQ(g.triggers, w.triggers) << "record " << i;
    ASSERT_EQ(g.rolled_back, w.rolled_back) << "record " << i;
  }
}

/// Runs the stream over the schedule and checks its final state against the
/// batch reference.
void CheckStreamMatchesBatch(const World& world,
                             const std::vector<Sentence>& all,
                             const Schedule& schedule,
                             const BatchResult& batch) {
  StreamOptions options;
  options.extractor = TestExtractorOptions();
  options.cleaner = TestCleanerOptions();
  StreamPipeline stream(&world, options);
  std::vector<std::vector<Sentence>> epochs = SplitEpochs(all, schedule.cuts);
  for (size_t k = 0; k < epochs.size(); ++k) {
    Result<StreamEpochStats> stats =
        stream.RunEpoch(std::move(epochs[k]), k + 1 == epochs.size());
    ASSERT_TRUE(stats.ok()) << schedule.name << " epoch " << (k + 1) << ": "
                            << stats.status().ToString();
  }
  ExpectSameRecords(stream.kb(), batch.kb);
  auto image = stream.BuildImage();
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(*image, batch.image) << schedule.name << ": snapshot image bytes";
}

TEST(StreamDifferentialTest, FinalStateMatchesBatchAcrossSeedsAndSchedules) {
  SetGlobalThreadCount(1);
  for (uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    World world = MakeWorld(seed);
    std::vector<Sentence> all = MakeSentences(world, seed);
    BatchResult batch = RunBatch(world, all);
    EXPECT_GT(batch.kb.num_live_pairs(), 0u);
    for (const Schedule& schedule : Schedules()) {
      SCOPED_TRACE(schedule.name);
      CheckStreamMatchesBatch(world, all, schedule, batch);
    }
  }
}

/// The pipeline's determinism contract is per thread-count-independent
/// stage ordering: the same worlds and schedules must land on the same
/// bytes with 8 workers as with 1.
TEST(StreamDifferentialTest, FinalStateMatchesBatchAtEightThreads) {
  SetGlobalThreadCount(8);
  for (uint64_t seed = 0; seed < 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    World world = MakeWorld(seed);
    std::vector<Sentence> all = MakeSentences(world, seed);
    BatchResult batch = RunBatch(world, all);
    for (const Schedule& schedule : Schedules()) {
      SCOPED_TRACE(schedule.name);
      CheckStreamMatchesBatch(world, all, schedule, batch);
    }
  }
  SetGlobalThreadCount(1);
}

/// With full_rebuild_every=1 every epoch is a rebuild, so the stream must
/// track the batch pipeline at *every* prefix of the corpus, not just the
/// final epoch.
TEST(StreamDifferentialTest, EveryEpochMatchesBatchPrefixUnderFullRebuilds) {
  SetGlobalThreadCount(1);
  for (uint64_t seed = 0; seed < 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    World world = MakeWorld(seed);
    std::vector<Sentence> all = MakeSentences(world, seed);
    const Schedule schedule = Schedules()[0];  // even-4
    StreamOptions options;
    options.extractor = TestExtractorOptions();
    options.cleaner = TestCleanerOptions();
    options.full_rebuild_every = 1;
    StreamPipeline stream(&world, options);
    std::vector<std::vector<Sentence>> epochs = SplitEpochs(all, schedule.cuts);
    size_t prefix = 0;
    for (size_t k = 0; k < epochs.size(); ++k) {
      prefix += epochs[k].size();
      Result<StreamEpochStats> stats =
          stream.RunEpoch(std::move(epochs[k]), k + 1 == epochs.size());
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_TRUE(stats->full_rebuild);
      std::vector<Sentence> head(all.begin(),
                                 all.begin() + static_cast<long>(prefix));
      BatchResult batch = RunBatch(world, head);
      ExpectSameRecords(stream.kb(), batch.kb);
      auto image = stream.BuildImage();
      ASSERT_TRUE(image.ok());
      EXPECT_EQ(*image, batch.image) << "prefix " << prefix;
    }
  }
}

/// Incremental epochs must publish a monotonically growing generation and
/// keep the epoch-boundary invariants (scoped validate + replay) green even
/// when no epoch is a rebuild — the pure-incremental path the scenario
/// harness exercises for divergence measurement.
TEST(StreamDifferentialTest, PureIncrementalRunStaysValid) {
  SetGlobalThreadCount(1);
  World world = MakeWorld(3);
  std::vector<Sentence> all = MakeSentences(world, 3);
  StreamOptions options;
  options.extractor = TestExtractorOptions();
  options.cleaner = TestCleanerOptions();
  options.final_full_rebuild = false;
  StreamPipeline stream(&world, options);
  std::vector<std::vector<Sentence>> epochs =
      SplitEpochs(all, Schedules()[2].cuts);
  size_t ingested = 0;
  for (size_t k = 0; k < epochs.size(); ++k) {
    size_t count = epochs[k].size();
    Result<StreamEpochStats> stats =
        stream.RunEpoch(std::move(epochs[k]), k + 1 == epochs.size());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_FALSE(stats->full_rebuild);
    ingested += count;
    EXPECT_EQ(stream.stale_sentences(), ingested);
  }
  // Replay of the full provenance log plus the global invariant check still
  // hold on the (possibly batch-divergent) incremental state.
  Result<KnowledgeBase> replayed = KnowledgeBase::FromRecords(stream.kb().records());
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  Status valid = replayed->Validate(world.num_concepts(), all.size());
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

/// Spans named `name` lying inside some `container` span on the same thread.
size_t CountInside(const std::vector<TraceSpan>& spans, const std::string& name,
                   const std::string& container) {
  size_t count = 0;
  for (const TraceSpan& s : spans) {
    if (s.name != name) continue;
    for (const TraceSpan& box : spans) {
      const bool within = box.start_ns <= s.start_ns &&
                          s.start_ns + s.dur_ns <= box.start_ns + box.dur_ns;
      if (box.name == container && box.thread == s.thread && within) {
        ++count;
        break;
      }
    }
  }
  return count;
}

struct PublishedRun {
  std::vector<std::string> canonical_spans;
  size_t images_in_publish = 0;
  size_t diffs_in_publish = 0;
};

/// A pure-incremental stream publishing every epoch (a full image, then
/// deltas) into a publish dir an in-process SnapshotManager installs from.
/// Every epoch's published image must equal a direct compile of the epoch's
/// KB — the publisher carries its names block across epochs instead of
/// rebuilding it — and every installed generation must serve that image.
PublishedRun RunPublishedStream(int threads, const std::string& dir) {
  SetGlobalThreadCount(threads);
  World world = MakeWorld(5);
  std::vector<Sentence> all = MakeSentences(world, 5);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir + "/pub", ec);
  std::filesystem::create_directories(dir + "/epochs", ec);
  StreamOptions options;
  options.extractor = TestExtractorOptions();
  options.cleaner = TestCleanerOptions();
  options.final_full_rebuild = false;
  options.publish_dir = dir + "/pub";
  options.epoch_snapshot_dir = dir + "/epochs";
  StreamPipeline stream(&world, options);
  SnapshotManagerOptions manager_options;
  manager_options.dir = options.publish_dir;
  SnapshotManager manager(manager_options);

  PublishedRun run;
  GlobalTrace().Clear();
  GlobalTrace().Enable(true);
  std::vector<std::vector<Sentence>> epochs = SplitEpochs(all, Schedules()[0].cuts);
  for (size_t k = 0; k < epochs.size(); ++k) {
    SCOPED_TRACE("epoch " + std::to_string(k + 1));
    Result<StreamEpochStats> stats =
        stream.RunEpoch(std::move(epochs[k]), k + 1 == epochs.size());
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (!stats.ok()) break;
    EXPECT_EQ(stats->published_delta, k > 0);
    auto published = ReadFileToString(options.epoch_snapshot_dir + "/epoch-" +
                                      std::to_string(k + 1) + ".bin");
    EXPECT_TRUE(published.ok());
    auto direct = BuildSnapshotImage(
        CompileSnapshotParts(stream.kb(), world, nullptr, SnapshotOptions{}));
    EXPECT_TRUE(direct.ok() && published.ok() && *published == *direct)
        << "published image differs from a direct compile";

    if (k == 0) {
      EXPECT_TRUE(manager.LoadInitial().ok());
    } else {
      SnapshotPollResult poll = manager.Poll();
      EXPECT_EQ(poll.swaps, 1);
      EXPECT_EQ(poll.failed, 0);
    }
    std::shared_ptr<const ServingGeneration> current = manager.Current();
    EXPECT_TRUE(current != nullptr && current->generation == stats->generation);
    if (current == nullptr || !published.ok()) continue;
    auto served = PartsFromReader(current->reader);
    EXPECT_TRUE(served.ok());
    if (!served.ok()) continue;
    auto rebuilt = BuildSnapshotImage(*served);
    EXPECT_TRUE(rebuilt.ok() && *rebuilt == *published)
        << "installed generation differs from the published image";
  }
  GlobalTrace().Enable(false);
  std::vector<TraceSpan> spans = GlobalTrace().Snapshot();
  GlobalTrace().Clear();
  for (const TraceSpan& span : spans) run.canonical_spans.push_back(span.CanonicalLine());
  run.images_in_publish = CountInside(spans, "snapshot.image", "stream.publish");
  run.diffs_in_publish = CountInside(spans, "snapshot.diff", "stream.publish");
  SetGlobalThreadCount(1);
  return run;
}

TEST(StreamDifferentialTest, PublishedChainInstallsDirectImagesWithPublishSpans) {
  const std::string dir = ::testing::TempDir() + "/stream_published";
  PublishedRun serial = RunPublishedStream(1, dir + "-1");
  // Four epochs: four image builds, three diffs (epoch 1 publishes a full
  // image), each inside its epoch's stream.publish span.
  EXPECT_EQ(serial.images_in_publish, 4u);
  EXPECT_EQ(serial.diffs_in_publish, 3u);
  // FinishEpoch is a serial driver: the span sequence, with its tags, does
  // not depend on the thread count.
  PublishedRun parallel = RunPublishedStream(4, dir + "-4");
  EXPECT_EQ(parallel.canonical_spans, serial.canonical_spans);
}

}  // namespace
}  // namespace semdrift
