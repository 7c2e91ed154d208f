#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "net/net_client.h"
#include "net/router.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"
#include "testing/random_structures.h"

namespace semdrift {
namespace {

class NetServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    World world = property::RandomWorld(11);
    size_t ns = 0;
    KnowledgeBase kb_a = property::RandomKb(world, 11, &ns);
    KnowledgeBase kb_b = property::RandomKb(world, 1011, &ns);
    auto image_a = BuildSnapshotImage(
        CompileSnapshotParts(kb_a, world, nullptr, SnapshotOptions{}));
    auto image_b = BuildSnapshotImage(
        CompileSnapshotParts(kb_b, world, nullptr, SnapshotOptions{}));
    ASSERT_TRUE(image_a.ok() && image_b.ok());
    image_a_ = new std::string(std::move(*image_a));
    image_b_ = new std::string(std::move(*image_b));
    auto reader = SnapshotReader::OpenFromBuffer(*image_a_, "server-fixture");
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
      }
    }
    ASSERT_GT(workload_->size(), 4u);
  }
  static void TearDownTestSuite() {
    delete image_a_;
    delete image_b_;
    delete reader_;
    delete workload_;
    delete concepts_;
  }

  /// Tab-form mutex lines whose two concepts `router` places on different
  /// shards (scatter-gathered through the shard batchers).
  static std::vector<std::string> SplitMutexLines(const ShardRouter& router) {
    std::vector<std::string> lines;
    for (size_t i = 0; i + 1 < concepts_->size(); ++i) {
      const std::string& a = (*concepts_)[i];
      const std::string& b = (*concepts_)[i + 1];
      if (router.OwnerOf(a) != router.OwnerOf(b)) {
        lines.push_back("mutex\t" + a + "\t" + b);
      }
    }
    return lines;
  }

  static std::string* image_a_;
  static std::string* image_b_;
  static SnapshotReader* reader_;
  static std::vector<std::string>* workload_;
  static std::vector<std::string>* concepts_;
};

std::string* NetServerTest::image_a_ = nullptr;
std::string* NetServerTest::image_b_ = nullptr;
SnapshotReader* NetServerTest::reader_ = nullptr;
std::vector<std::string>* NetServerTest::workload_ = nullptr;
std::vector<std::string>* NetServerTest::concepts_ = nullptr;

TEST_F(NetServerTest, RoundTripsAreByteIdenticalToDirectEngine) {
  RouterOptions router_options;
  router_options.num_shards = 2;
  ShardRouter router(reader_, router_options);
  NetServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  auto client = LineClient::Connect(server.endpoint());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  QueryEngine direct(reader_);
  for (const std::string& line : *workload_) {
    auto response = client->RoundTrip(line);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(*response, direct.Answer(line)) << line;
  }
}

TEST_F(NetServerTest, PipelinedResponsesComeBackInRequestOrder) {
  RouterOptions router_options;
  router_options.num_shards = 4;  // Shards complete out of order...
  ShardRouter router(reader_, router_options);
  NetServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  // Point verbs answer inline, in order by construction; split mutex lines
  // go through the shard batchers and complete after the lines behind them.
  const std::vector<std::string> split = SplitMutexLines(router);
  ASSERT_FALSE(split.empty()) << "no concept pair split across shards";
  std::vector<std::string> lines;
  uint64_t split_per_round = 0;
  for (size_t i = 0; i < workload_->size(); ++i) {
    lines.push_back((*workload_)[i]);
    if (i % 3 == 0) {
      lines.push_back(split[split_per_round++ % split.size()]);
    }
  }

  auto client = LineClient::Connect(server.endpoint());
  ASSERT_TRUE(client.ok());
  // ...but the connection's reorder buffer must restore request order.
  for (int round = 0; round < 3; ++round) {
    for (const std::string& line : lines) {
      ASSERT_TRUE(client->SendLine(line).ok());
    }
    QueryEngine direct(reader_);
    for (const std::string& line : lines) {
      auto response = client->ReadLine();
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(*response, direct.Answer(line)) << line;
    }
  }
  EXPECT_EQ(router.Snapshot().fanout, 3 * split_per_round);
  EXPECT_EQ(router.Snapshot().fanout_mismatch, 0u);
}

TEST_F(NetServerTest, OversizedLineAnsweredInSlotWithoutDesync) {
  RouterOptions router_options;
  ShardRouter router(reader_, router_options);
  NetServerOptions options;
  options.max_line_bytes = 64;
  NetServer server(&router, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = LineClient::Connect(server.endpoint());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendLine("stats").ok());
  ASSERT_TRUE(client->SendLine(std::string(500, 'x')).ok());
  ASSERT_TRUE(client->SendLine("stats").ok());
  auto first = client->ReadLine();
  auto second = client->ReadLine();
  auto third = client->ReadLine();
  ASSERT_TRUE(first.ok() && second.ok() && third.ok());
  EXPECT_EQ(first->rfind("OK\tstats", 0), 0u);
  EXPECT_EQ(*second, "ERR\tline too long (max 64 bytes)");
  EXPECT_EQ(third->rfind("OK\tstats", 0), 0u);
  EXPECT_EQ(server.counters().oversized, 1u);
}

TEST_F(NetServerTest, TrailingUnterminatedLineStillAnswered) {
  RouterOptions router_options;
  ShardRouter router(reader_, router_options);
  NetServer server(&router);
  ASSERT_TRUE(server.Start().ok());
  auto client = LineClient::Connect(server.endpoint());
  ASSERT_TRUE(client.ok());
  // "printf 'metrics\nstats' | nc" style: a complete line, then an
  // unterminated trailing one, then half-close. EOF promotes the residue to
  // a real request.
  ASSERT_TRUE(client->SendRaw("metrics\nstats").ok());
  ASSERT_TRUE(client->ShutdownWrite().ok());
  auto first = client->ReadLine();
  auto second = client->ReadLine();
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->rfind("OK\t{", 0), 0u);
  EXPECT_EQ(second->rfind("OK\tstats", 0), 0u);
  // After both responses the server closes the drained half-closed conn.
  EXPECT_FALSE(client->ReadLine().ok());
}

TEST_F(NetServerTest, AbruptDisconnectMidResponseIsContained) {
  RouterOptions router_options;
  router_options.num_shards = 2;
  ShardRouter router(reader_, router_options);
  NetServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  // Fire-and-quit clients: pipeline requests, slam the connection shut
  // before reading. The server must neither crash nor leak the responses.
  for (int i = 0; i < 16; ++i) {
    auto client = LineClient::Connect(server.endpoint());
    ASSERT_TRUE(client.ok());
    for (const std::string& line : *workload_) {
      if (!client->SendLine(line).ok()) break;
    }
    client->Close();
  }
  // A fresh connection still gets clean service afterwards.
  auto survivor = LineClient::Connect(server.endpoint());
  ASSERT_TRUE(survivor.ok());
  QueryEngine direct(reader_);
  auto response = survivor->RoundTrip((*workload_)[0]);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(*response, direct.Answer((*workload_)[0]));
  // Wait for the loop to observe the disconnects (closed-counter catch-up
  // is asynchronous).
  for (int spin = 0; spin < 200 && server.counters().closed < 16; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server.counters().closed, 16u);
}

TEST_F(NetServerTest, BackpressurePausesReadsWithoutLosingOrder) {
  RouterOptions router_options;
  ShardRouter router(reader_, router_options);
  NetServerOptions options;
  options.max_inflight_per_conn = 4;  // Tiny: force pauses quickly.
  NetServer server(&router, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = LineClient::Connect(server.endpoint());
  ASSERT_TRUE(client.ok());
  const int kRequests = 200;
  std::thread writer([&] {
    for (int i = 0; i < kRequests; ++i) {
      ASSERT_TRUE(
          client->SendLine((*workload_)[i % workload_->size()]).ok());
    }
  });
  QueryEngine direct(reader_);
  for (int i = 0; i < kRequests; ++i) {
    auto response = client->ReadLine();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(*response, direct.Answer((*workload_)[i % workload_->size()]));
  }
  writer.join();
  EXPECT_GT(server.counters().backpressure_pauses, 0u);
}

TEST_F(NetServerTest, ReadDrainStopsAtInflightCap) {
  RouterOptions router_options;
  router_options.num_shards = 1;
  router_options.batch.start_paused = true;  // Queued requests stay in flight.
  router_options.batch.deadline_budget_ms = 60000;  // Queue everything, shed nothing.
  router_options.batch.default_deadline_ms = 0;
  ShardRouter router(reader_, router_options);
  NetServerOptions options;
  options.max_inflight_per_conn = 4;
  NetServer server(&router, options);
  ASSERT_TRUE(server.Start().ok());

  const int kLines = 2000;
  std::string payload;
  size_t shortest = SIZE_MAX;
  for (int i = 0; i < kLines; ++i) {
    const std::string& line = (*workload_)[i % workload_->size()];
    payload += line + "\n";
    shortest = std::min(shortest, line.size() + 1);
  }
  // One 16 KB read completes at most this many lines (the first may have
  // started in an earlier read).
  const uint64_t one_read = 16384 / shortest + 1;
  ASSERT_LT(options.max_inflight_per_conn + one_read, static_cast<uint64_t>(kLines));

  auto client = LineClient::Connect(server.endpoint());
  ASSERT_TRUE(client.ok());
  // The server stops reading mid-payload, so the write may block until the
  // router resumes.
  std::thread writer([&] { ASSERT_TRUE(client->SendRaw(payload).ok()); });
  for (int spin = 0; spin < 1000 && router.Snapshot().requests == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Time for a drain that ignored the cap to read on.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(router.Snapshot().requests, options.max_inflight_per_conn + one_read);
  EXPECT_GT(server.counters().backpressure_pauses, 0u);

  router.ResumeAll();
  QueryEngine direct(reader_);
  for (int i = 0; i < kLines; ++i) {
    auto response = client->ReadLine();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(*response, direct.Answer((*workload_)[i % workload_->size()])) << i;
  }
  writer.join();
  EXPECT_EQ(router.Snapshot().requests, static_cast<uint64_t>(kLines));
}

TEST_F(NetServerTest, PointRequestsCompleteInlineOnOneShard) {
  RouterOptions router_options;
  router_options.num_shards = 1;
  ShardRouter router(reader_, router_options);
  NetServer server(&router);
  ASSERT_TRUE(server.Start().ok());
  const MetricsRegistry& metrics = GlobalMetrics();
  const uint64_t lines = metrics.CounterValue("net.lines");
  const uint64_t inline_done = metrics.CounterValue("net.completions.inline");
  const uint64_t posted = metrics.CounterValue("net.completions.posted");
  const uint64_t read = metrics.CounterValue("net.bytes_read");

  auto client = LineClient::Connect(server.endpoint());
  ASSERT_TRUE(client.ok());
  uint64_t sent_bytes = 0;
  for (const std::string& line : *workload_) {
    ASSERT_TRUE(client->SendLine(line).ok());
    sent_bytes += line.size() + 1;
  }
  QueryEngine direct(reader_);
  for (const std::string& line : *workload_) {
    auto response = client->ReadLine();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(*response, direct.Answer(line)) << line;
  }
  const uint64_t n = workload_->size();
  EXPECT_EQ(metrics.CounterValue("net.lines") - lines, n);
  EXPECT_EQ(metrics.CounterValue("net.completions.inline") - inline_done, n);
  EXPECT_EQ(metrics.CounterValue("net.completions.posted") - posted, 0u);
  EXPECT_EQ(metrics.CounterValue("net.bytes_read") - read, sent_bytes);
  EXPECT_GT(metrics.CounterValue("net.wakeups"), 0u);
  // The `metrics` verb exports the loop's metrics.
  auto dump = client->RoundTrip("metrics");
  ASSERT_TRUE(dump.ok());
  for (const char* name : {"net.wakeups", "net.lines", "net.bytes_read",
                           "net.bytes_written", "net.completions.inline",
                           "net.completions.posted", "net.backpressure_pauses",
                           "net.loop_busy_ns"}) {
    EXPECT_NE(dump->find(std::string("\"") + name + "\""), std::string::npos) << name;
  }
}

TEST_F(NetServerTest, SplitMutexCompletesThroughTheEventfd) {
  RouterOptions router_options;
  router_options.num_shards = 4;
  ShardRouter router(reader_, router_options);
  NetServer server(&router);
  ASSERT_TRUE(server.Start().ok());
  const std::vector<std::string> split = SplitMutexLines(router);
  ASSERT_FALSE(split.empty()) << "no concept pair split across shards";
  const uint64_t posted = GlobalMetrics().CounterValue("net.completions.posted");

  auto client = LineClient::Connect(server.endpoint());
  ASSERT_TRUE(client.ok());
  auto response = client->RoundTrip(split.front());
  ASSERT_TRUE(response.ok());
  QueryEngine direct(reader_);
  EXPECT_EQ(*response, direct.Answer(split.front()));
  EXPECT_GE(GlobalMetrics().CounterValue("net.completions.posted") - posted, 1u);
}

TEST_F(NetServerTest, ShedsWithOverloadedUnderAdmissionLadder) {
  RouterOptions router_options;
  router_options.num_shards = 1;  // One queue: the park recipe is exact.
  router_options.batch.start_paused = true;
  router_options.batch.deadline_budget_ms = 10;
  router_options.batch.overload_window_ms = 10000;  // Hold the level for the test.
  router_options.batch.default_deadline_ms = 0;
  ShardRouter router(reader_, router_options);
  NetServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  auto client = LineClient::Connect(server.endpoint());
  ASSERT_TRUE(client.ok());
  // Park pipelined requests behind the paused shard dispatcher for well over
  // the budget, then release: their recorded waits push p99 past the
  // full-budget rung, engaging shed level 2.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client->SendLine((*workload_)[i % workload_->size()]).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  router.ResumeAll();
  for (int i = 0; i < 8; ++i) {
    auto response = client->ReadLine();
    ASSERT_TRUE(response.ok());
    EXPECT_NE(response->rfind("OVERLOADED", 0), 0u);  // Admitted pre-overload.
  }
  // Socket requests run at kNormal: the next one must be refused with the
  // canonical OVERLOADED line (and exit-code-4 contract downstream).
  auto shed = client->RoundTrip((*workload_)[0]);
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(*shed,
            "OVERLOADED\tqueue-wait p99 over deadline budget; request shed");
}

TEST_F(NetServerTest, EightClientSoakSurvivesHotSwapMidLoad) {
  const std::string dir = ::testing::TempDir() + "/net_soak";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  ASSERT_TRUE(PublishSnapshotImage(*image_a_, dir + "/snap-1.bin").ok());

  SnapshotManagerOptions manager_options;
  manager_options.dir = dir;
  manager_options.backoff_base_ms = 0;
  SnapshotManager manager(manager_options);
  ASSERT_TRUE(manager.LoadInitial().ok());

  RouterOptions router_options;
  router_options.num_shards = 4;
  ShardRouter router(&manager, router_options);
  NetServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  // Answers must always match exactly one of the two generations — a torn
  // response (half A, half B) or a dropped/misordered line fails the run.
  auto reader_b = SnapshotReader::OpenFromBuffer(*image_b_, "gen2");
  ASSERT_TRUE(reader_b.ok());
  QueryEngine engine_a(reader_);
  QueryEngine engine_b(&*reader_b);
  std::vector<std::string> answers_a, answers_b;
  for (const std::string& line : *workload_) {
    answers_a.push_back(engine_a.Answer(line));
    answers_b.push_back(engine_b.Answer(line));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checked{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      auto client = LineClient::Connect(server.endpoint());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      size_t i = static_cast<size_t>(c);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t idx = i++ % workload_->size();
        auto response = client->RoundTrip((*workload_)[idx]);
        if (!response.ok()) {
          failures.fetch_add(1);
          return;
        }
        if (*response != answers_a[idx] && *response != answers_b[idx]) {
          failures.fetch_add(1);
          return;
        }
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Swap generations under load, repeatedly, in both directions.
  for (int swap = 2; swap <= 5; ++swap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    const std::string& image = (swap % 2 == 0) ? *image_b_ : *image_a_;
    ASSERT_TRUE(
        PublishSnapshotImage(image, dir + "/snap-" + std::to_string(swap) + ".bin")
            .ok());
    manager.Poll();
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(checked.load(), 100u);
  EXPECT_EQ(router.Snapshot().fanout_mismatch, 0u);
  EXPECT_EQ(manager.generation(), 5u);
}

}  // namespace
}  // namespace semdrift
