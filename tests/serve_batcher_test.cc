#include <gtest/gtest.h>

#include <future>
#include <string>
#include <thread>
#include <vector>

#include "eval/experiment.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"

namespace semdrift {
namespace {

// Declared first so it runs before any Batcher in this binary has queued a
// request.
TEST(BatcherMetricsTest, ConstructionRegistersBatchMetrics) {
  ASSERT_TRUE(GlobalMetrics().HistogramValues("batch.queue_wait_ns").buckets.empty())
      << "a batcher already ran in this process";
  Batcher batcher(EngineSource([] { return EnginePin{}; }));
  EXPECT_FALSE(GlobalMetrics().HistogramValues("batch.queue_wait_ns").buckets.empty());
  EXPECT_NE(GlobalMetrics().ToJson().find("\"batch.queue_wait_ns\""),
            std::string::npos);
}

/// Concurrency-focused suite (runs under TSan via tools/check.sh): N client
/// threads hammering one QueryEngine through the Batcher must produce
/// byte-identical responses to a serial pass over the same lines.
class BatcherTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExperimentConfig config = PaperScaleConfig(0.05);
    config.seed = 31;
    std::unique_ptr<Experiment> experiment = Experiment::Build(config);
    KnowledgeBase kb = experiment->Extract();
    path_ = ::testing::TempDir() + "/serve_batcher_test.bin";
    Status written =
        WriteSnapshot(kb, experiment->world(), nullptr, SnapshotOptions{}, path_);
    ASSERT_TRUE(written.ok()) << written.ToString();
    auto opened = SnapshotReader::Open(path_);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    snapshot_ = new SnapshotReader(std::move(*opened));

    // A deterministic mixed workload touching every verb, including misses.
    for (uint32_t c = 0; c < snapshot_->num_concepts(); c += 3) {
      const std::string concept_name(snapshot_->ConceptName(c));
      workload_.push_back("instances-of\t" + concept_name + "\t4");
      if (snapshot_->ConceptEnd(c) > snapshot_->ConceptBegin(c)) {
        const std::string member(snapshot_->InstanceName(
            snapshot_->PairInstance(snapshot_->ConceptBegin(c))));
        workload_.push_back("concepts-of\t" + member);
        workload_.push_back("is-a\t" + member + "\t" + concept_name);
        workload_.push_back("drift-score\t" + member + "\t" + concept_name);
      }
      workload_.push_back("mutex\t" + concept_name + "\t" +
                          std::string(snapshot_->ConceptName(0)));
      workload_.push_back("is-a\tno such instance\t" + concept_name);
    }
  }
  static void TearDownTestSuite() {
    delete snapshot_;
    snapshot_ = nullptr;
    workload_.clear();
  }

  static SnapshotReader* snapshot_;
  static std::string path_;
  static std::vector<std::string> workload_;
};

SnapshotReader* BatcherTest::snapshot_ = nullptr;
std::string BatcherTest::path_;
std::vector<std::string> BatcherTest::workload_;

TEST_F(BatcherTest, ConcurrentBatchedAnswersAreBitIdenticalToSerial) {
  // Serial reference on a private engine.
  std::vector<std::string> expected;
  {
    QueryEngine serial(snapshot_);
    for (const std::string& line : workload_) expected.push_back(serial.Answer(line));
  }

  QueryEngine engine(snapshot_);
  Batcher batcher(&engine);
  constexpr int kThreads = 8;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      // Each client walks the whole workload at its own stride so threads
      // collide on the same queries (cache hits) and on different ones.
      std::vector<std::future<std::string>> futures;
      for (size_t i = t % 3; i < workload_.size(); ++i) {
        futures.push_back(batcher.Submit(workload_[i]));
      }
      for (auto& f : futures) got[t].push_back(f.get());
    });
  }
  for (std::thread& c : clients) c.join();
  for (int t = 0; t < kThreads; ++t) {
    size_t j = 0;
    for (size_t i = t % 3; i < workload_.size(); ++i, ++j) {
      ASSERT_EQ(got[t][j], expected[i])
          << "thread " << t << " query " << workload_[i];
    }
  }
  BatcherStats stats = batcher.Snapshot();
  EXPECT_GT(stats.requests, 0u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GE(stats.requests, stats.batches);
}

TEST_F(BatcherTest, PausedSubmissionsCoalesceIntoOneBatch) {
  QueryEngine engine(snapshot_);
  BatcherOptions options;
  options.start_paused = true;
  options.max_batch = 64;
  Batcher batcher(&engine, options);
  std::vector<std::future<std::string>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(batcher.Submit(workload_[i % workload_.size()]));
  }
  EXPECT_EQ(batcher.Snapshot().batches, 0u);
  batcher.Resume();
  for (auto& f : futures) EXPECT_FALSE(f.get().empty());
  BatcherStats stats = batcher.Snapshot();
  EXPECT_EQ(stats.requests, 10u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.max_batch, 10u);
}

TEST_F(BatcherTest, DeadlineExpiredWhileQueuedIsAnErrorNotAnAnswer) {
  QueryEngine engine(snapshot_);
  BatcherOptions options;
  options.start_paused = true;
  Batcher batcher(&engine, options);
  std::future<std::string> doomed = batcher.Submit(workload_[0], /*deadline_ms=*/1);
  std::future<std::string> fine = batcher.Submit(workload_[0], /*deadline_ms=*/0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  batcher.Resume();
  EXPECT_EQ(doomed.get(), "ERR\tdeadline exceeded");
  EXPECT_TRUE(fine.get().rfind("OK", 0) == 0);
  EXPECT_EQ(batcher.Snapshot().deadline_expired, 1u);
}

TEST_F(BatcherTest, OverloadShedsByPriorityAndRecoversWithHysteresis) {
  QueryEngine engine(snapshot_);
  BatcherOptions options;
  options.start_paused = true;
  options.deadline_budget_ms = 10;
  options.overload_window_ms = 150;
  options.max_batch = 64;
  Batcher batcher(&engine, options);

  // Build up real queue wait: park requests behind the paused dispatcher for
  // well over the 10 ms budget, then let the batch through. The dispatch
  // records their waits, pushing p99 past the full-budget engage rung.
  std::vector<std::future<std::string>> parked;
  for (int i = 0; i < 8; ++i) {
    parked.push_back(batcher.Submit(workload_[i % workload_.size()]));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  batcher.Resume();
  for (auto& f : parked) {
    EXPECT_NE(f.get().rfind("OVERLOADED", 0), 0u);  // Admitted before overload.
  }
  BatcherStats stats = batcher.Snapshot();
  EXPECT_EQ(stats.overload_level, 2);
  EXPECT_EQ(stats.overload_engaged, 1u);

  // At level 2 only kHigh is admitted; shed responses carry the distinct
  // OVERLOADED line so clients can tell back-pressure from failure.
  auto low = batcher.Submit(workload_[0], 0, RequestPriority::kLow);
  auto normal = batcher.Submit(workload_[0], 0, RequestPriority::kNormal);
  auto high = batcher.Submit(workload_[0], 0, RequestPriority::kHigh);
  const std::string kShed =
      "OVERLOADED\tqueue-wait p99 over deadline budget; request shed";
  EXPECT_EQ(low.get(), kShed);
  EXPECT_EQ(normal.get(), kShed);
  EXPECT_EQ(high.get().rfind("OK", 0), 0u);
  EXPECT_EQ(batcher.Snapshot().shed, 2u);

  // Recovery: once the overload window ages out the p99 decays, and a
  // normal-priority probe is admitted again. Still the same single engage
  // episode — hysteresis, not flapping.
  std::this_thread::sleep_for(std::chrono::milliseconds(160));
  auto probe = batcher.Submit(workload_[0], 0, RequestPriority::kNormal);
  EXPECT_EQ(probe.get().rfind("OK", 0), 0u);
  stats = batcher.Snapshot();
  EXPECT_EQ(stats.overload_level, 0);
  EXPECT_EQ(stats.overload_engaged, 1u);
  EXPECT_EQ(stats.shed, 2u);
}

TEST_F(BatcherTest, EngineSourceNullPinYieldsErrorNotCrash) {
  Batcher batcher(EngineSource([] { return EnginePin{}; }));
  const std::string response = batcher.Submit(workload_[0]).get();
  EXPECT_EQ(response, "ERR\tno snapshot generation available");
}

TEST_F(BatcherTest, DestructionDrainsPendingRequests) {
  QueryEngine engine(snapshot_);
  std::vector<std::future<std::string>> futures;
  {
    BatcherOptions options;
    options.start_paused = true;  // Guarantee requests are still queued.
    Batcher batcher(&engine, options);
    for (int i = 0; i < 5; ++i) {
      futures.push_back(batcher.Submit(workload_[i % workload_.size()]));
    }
  }
  for (auto& f : futures) {
    const std::string response = f.get();
    EXPECT_TRUE(response.rfind("OK", 0) == 0 || response.rfind("NOT_FOUND", 0) == 0)
        << response;
  }
}

}  // namespace
}  // namespace semdrift
