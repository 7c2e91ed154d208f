#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "net/router.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"
#include "testing/random_structures.h"

namespace semdrift {
namespace {

/// Blocking ask for tests (the router itself never blocks).
std::string Ask(ShardRouter& router, const std::string& line,
                RequestPriority priority = RequestPriority::kNormal) {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  router.Submit(line, priority,
                [&promise](std::string r) { promise.set_value(std::move(r)); });
  return future.get();
}

/// Submits without waiting; the promise outlives a callback that runs after
/// the test gave up on it.
std::future<std::string> SubmitAsync(ShardRouter& router, const std::string& line) {
  auto promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = promise->get_future();
  router.Submit(line, RequestPriority::kNormal,
                [promise](std::string r) { promise->set_value(std::move(r)); });
  return future;
}

bool Ready(const std::future<std::string>& future) {
  return future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// Pulls `count:` for one verb out of a stats response line.
uint64_t StatsCount(const std::string& stats, const std::string& verb) {
  const std::string needle = verb + "=count:";
  const size_t pos = stats.find(needle);
  EXPECT_NE(pos, std::string::npos) << stats;
  if (pos == std::string::npos) return ~0ull;
  return std::stoull(stats.substr(pos + needle.size()));
}

class RouterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    World world = property::RandomWorld(7);
    size_t ns = 0;
    KnowledgeBase kb_a = property::RandomKb(world, 7, &ns);
    KnowledgeBase kb_b = property::RandomKb(world, 1007, &ns);
    auto image_a = BuildSnapshotImage(
        CompileSnapshotParts(kb_a, world, nullptr, SnapshotOptions{}));
    auto image_b = BuildSnapshotImage(
        CompileSnapshotParts(kb_b, world, nullptr, SnapshotOptions{}));
    ASSERT_TRUE(image_a.ok() && image_b.ok());
    image_a_ = new std::string(std::move(*image_a));
    image_b_ = new std::string(std::move(*image_b));
    auto reader = SnapshotReader::OpenFromBuffer(*image_a_, "router-fixture");
    ASSERT_TRUE(reader.ok());
    reader_ = new SnapshotReader(std::move(*reader));

    workload_ = new std::vector<std::string>();
    concepts_ = new std::vector<std::string>();
    for (uint32_t c = 0; c < reader_->num_concepts(); ++c) {
      const std::string name(reader_->ConceptName(c));
      concepts_->push_back(name);
      workload_->push_back("instances-of\t" + name + "\t4");
      if (reader_->ConceptEnd(c) > reader_->ConceptBegin(c)) {
        const std::string member(
            reader_->InstanceName(reader_->PairInstance(reader_->ConceptBegin(c))));
        workload_->push_back("is-a\t" + member + "\t" + name);
        workload_->push_back("concepts-of\t" + member);
        workload_->push_back("drift-score\t" + member + "\t" + name);
      }
    }
    ASSERT_GT(workload_->size(), 8u);
    ASSERT_GE(concepts_->size(), 2u);
  }
  static void TearDownTestSuite() {
    delete reader_;
    delete image_a_;
    delete image_b_;
    delete workload_;
    delete concepts_;
  }

  static std::string* image_a_;
  static std::string* image_b_;
  static SnapshotReader* reader_;
  static std::vector<std::string>* workload_;
  static std::vector<std::string>* concepts_;
};

std::string* RouterTest::image_a_ = nullptr;
std::string* RouterTest::image_b_ = nullptr;
SnapshotReader* RouterTest::reader_ = nullptr;
std::vector<std::string>* RouterTest::workload_ = nullptr;
std::vector<std::string>* RouterTest::concepts_ = nullptr;

TEST_F(RouterTest, ByteIdenticalToDirectEngineAtEveryShardCount) {
  QueryEngine direct(reader_);
  for (uint32_t shards : {1u, 2u, 4u}) {
    RouterOptions options;
    options.num_shards = shards;
    ShardRouter router(reader_, options);
    for (const std::string& line : *workload_) {
      EXPECT_EQ(Ask(router, line), direct.Answer(line))
          << "shards=" << shards << " line=" << line;
    }
  }
}

TEST_F(RouterTest, MergedStatsCountEveryRequestExactlyOnce) {
  RouterOptions options;
  options.num_shards = 4;
  ShardRouter router(reader_, options);
  uint64_t instances_of = 0;
  for (const std::string& line : *workload_) {
    Ask(router, line);
    if (line.rfind("instances-of", 0) == 0) instances_of++;
  }
  // Scatter-gathered mutex queries must also count once (the shadow leg
  // answers with record_stats=false).
  uint64_t mutex_count = 0;
  for (size_t i = 0; i + 1 < concepts_->size() && mutex_count < 6; i += 2) {
    Ask(router, "mutex\t" + (*concepts_)[i] + "\t" + (*concepts_)[i + 1]);
    mutex_count++;
  }
  const std::string stats = Ask(router, "stats");
  ASSERT_EQ(stats.rfind("OK\tstats", 0), 0u) << stats;
  EXPECT_EQ(StatsCount(stats, "instances-of"), instances_of);
  EXPECT_EQ(StatsCount(stats, "mutex"), mutex_count);
  EXPECT_NE(stats.find("\tshards=4"), std::string::npos) << stats;
}

TEST_F(RouterTest, MutexFanoutAgreesAcrossShards) {
  RouterOptions options;
  options.num_shards = 4;
  ShardRouter router(reader_, options);
  uint64_t fanned = 0;
  for (size_t i = 0; i < concepts_->size(); ++i) {
    for (size_t j = i + 1; j < concepts_->size() && fanned < 10; ++j) {
      if (router.OwnerOf((*concepts_)[i]) == router.OwnerOf((*concepts_)[j])) {
        continue;
      }
      const std::string line = "mutex\t" + (*concepts_)[i] + "\t" + (*concepts_)[j];
      QueryEngine direct(reader_);
      EXPECT_EQ(Ask(router, line), direct.Answer(line));
      fanned++;
    }
  }
  ASSERT_GT(fanned, 0u) << "no concept pair split across shards";
  const RouterStats stats = router.Snapshot();
  EXPECT_GE(stats.fanout, fanned);
  // Both shards answer from the same immutable snapshot: any mismatch is a
  // determinism bug, and this tripwire is exactly why the shadow leg runs.
  EXPECT_EQ(stats.fanout_mismatch, 0u);
}

TEST_F(RouterTest, SingleOwnerRequestsAnswerBeforeSubmitReturns) {
  QueryEngine direct(reader_);
  RouterOptions options;
  options.num_shards = 4;
  options.batch.start_paused = true;  // A queued request would wait here.
  ShardRouter router(reader_, options);
  for (const std::string& line : *workload_) {
    std::future<std::string> answer = SubmitAsync(router, line);
    ASSERT_TRUE(Ready(answer)) << line;
    EXPECT_EQ(answer.get(), direct.Answer(line)) << line;
  }
  EXPECT_EQ(router.Snapshot().direct, workload_->size());
}

TEST_F(RouterTest, SplitMutexStaysQueuedUntilResume) {
  RouterOptions options;
  options.num_shards = 4;
  options.batch.start_paused = true;
  ShardRouter router(reader_, options);
  std::string line;
  for (size_t i = 1; i < concepts_->size() && line.empty(); ++i) {
    if (router.OwnerOf((*concepts_)[0]) != router.OwnerOf((*concepts_)[i])) {
      line = "mutex\t" + (*concepts_)[0] + "\t" + (*concepts_)[i];
    }
  }
  ASSERT_FALSE(line.empty()) << "no concept pair split across shards";
  std::future<std::string> answer = SubmitAsync(router, line);
  EXPECT_EQ(answer.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);
  router.ResumeAll();
  QueryEngine direct(reader_);
  EXPECT_EQ(answer.get(), direct.Answer(line));
  EXPECT_EQ(router.Snapshot().fanout, 1u);
}

TEST_F(RouterTest, AdmissionControlKeepsSingleOwnerRequestsQueued) {
  RouterOptions options;
  options.num_shards = 2;
  options.batch.start_paused = true;
  options.batch.deadline_budget_ms = 60000;  // Admission on; nothing is shed.
  options.batch.default_deadline_ms = 0;
  ShardRouter router(reader_, options);
  std::vector<std::future<std::string>> answers;
  for (const std::string& line : *workload_) {
    answers.push_back(SubmitAsync(router, line));
  }
  EXPECT_EQ(answers.front().wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);
  for (const std::future<std::string>& answer : answers) {
    EXPECT_FALSE(Ready(answer));
  }
  router.ResumeAll();
  QueryEngine direct(reader_);
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(answers[i].get(), direct.Answer((*workload_)[i])) << (*workload_)[i];
  }
}

TEST_F(RouterTest, MetricsAnsweredInline) {
  RouterOptions options;
  options.num_shards = 2;
  ShardRouter router(reader_, options);
  const std::string response = Ask(router, "metrics");
  EXPECT_EQ(response.rfind("OK\t{", 0), 0u) << response.substr(0, 40);
  EXPECT_EQ(router.Snapshot().local, 1u);
}

TEST_F(RouterTest, HotSwapPropagatesToEveryShard) {
  const std::string dir =
      ::testing::TempDir() + "/router_hotswap";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  ASSERT_TRUE(PublishSnapshotImage(*image_a_, dir + "/snap-1.bin").ok());

  SnapshotManagerOptions manager_options;
  manager_options.dir = dir;
  manager_options.backoff_base_ms = 0;
  SnapshotManager manager(manager_options);
  ASSERT_TRUE(manager.LoadInitial().ok());

  RouterOptions options;
  options.num_shards = 4;
  ShardRouter router(&manager, options);
  EXPECT_EQ(router.generation(), 1u);

  auto reader_b = SnapshotReader::OpenFromBuffer(*image_b_, "gen2");
  ASSERT_TRUE(reader_b.ok());
  QueryEngine engine_a(reader_);
  QueryEngine engine_b(&*reader_b);

  for (const std::string& line : *workload_) {
    EXPECT_EQ(Ask(router, line), engine_a.Answer(line));
  }

  ASSERT_TRUE(PublishSnapshotImage(*image_b_, dir + "/snap-2.bin").ok());
  SnapshotPollResult poll = manager.Poll();
  EXPECT_EQ(poll.swaps, 1);
  EXPECT_EQ(router.generation(), 2u);

  // Every shard must now answer from generation 2 — the workload covers
  // enough distinct keys to land on all four.
  for (const std::string& line : *workload_) {
    EXPECT_EQ(Ask(router, line), engine_b.Answer(line)) << line;
  }
  const std::string stats = Ask(router, "stats");
  EXPECT_NE(stats.find("\tgeneration=2\t"), std::string::npos) << stats;
}

TEST_F(RouterTest, NoGenerationYieldsErr) {
  const std::string dir = ::testing::TempDir() + "/router_empty";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  SnapshotManagerOptions manager_options;
  manager_options.dir = dir;
  manager_options.backoff_base_ms = 0;
  SnapshotManager manager(manager_options);
  RouterOptions options;
  options.num_shards = 2;
  ShardRouter router(&manager, options);
  EXPECT_EQ(Ask(router, "instances-of\tanything"),
            "ERR\tno snapshot generation available");
}

}  // namespace
}  // namespace semdrift
