// Tests of the benchmark's own arithmetic: percentiles with their sample
// count, failure shares with their base, backlog detection on synthetic
// completion series, seeded request generation, and the per-layer table's
// self times.
#include <gtest/gtest.h>

#include "requests.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankOverUnsortedSamples) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  EXPECT_EQ(Percentile(samples, 50.0), 50.0);
  EXPECT_EQ(Percentile(samples, 99.0), 99.0);
  EXPECT_EQ(Percentile(samples, 100.0), 100.0);
  EXPECT_EQ(Percentile({7.0}, 99.0), 7.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
}

TEST(Percentile, SummaryCarriesItsCount) {
  Quantiles q = Summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(q.count, 3u);
  EXPECT_EQ(q.p50, 2.0);
  EXPECT_EQ(q.p99, 3.0);
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(PercentileSupported(999, 99.0));
  EXPECT_TRUE(PercentileSupported(1000, 99.0));
  EXPECT_TRUE(PercentileSupported(20, 50.0));
  EXPECT_FALSE(PercentileSupported(19, 50.0));
}

TEST(FailureCount, ShareAgainstItsBase) {
  FailureCount f;
  for (int i = 0; i < 8; ++i) f.Add(true);
  f.Add(false);
  f.Add(false);
  EXPECT_EQ(f.attempted, 10u);
  EXPECT_EQ(f.failed, 2u);
  EXPECT_DOUBLE_EQ(f.FailedShare(), 0.2);
  EXPECT_DOUBLE_EQ(f.OkShare(), 0.8);
  FailureCount other;
  other.Add(true);
  f.Merge(other);
  EXPECT_EQ(f.attempted, 11u);
  EXPECT_DOUBLE_EQ(f.FailedShare(), 2.0 / 11.0);
}

TEST(FailureCount, NothingAttemptedIsAFailure) {
  FailureCount f;
  EXPECT_DOUBLE_EQ(f.FailedShare(), 1.0);
  EXPECT_DOUBLE_EQ(f.OkShare(), 0.0);
}

std::vector<Completion> Series(double rate, int n, double service_us_per_request,
                               double base_latency_us) {
  // A single server taking service_us per request behind an arrival every
  // 1e6/rate us: the queue is stable when service < interval.
  std::vector<Completion> out;
  double interval = 1e6 / rate;
  double free_at = 0.0;
  for (int i = 0; i < n; ++i) {
    double due = interval * i;
    double start = std::max(due, free_at);
    free_at = start + service_us_per_request;
    out.push_back(Completion{due, free_at + base_latency_us, true});
  }
  return out;
}

TEST(Backlog, FlatWhenServiceKeepsUp) {
  BacklogVerdict v = DetectBacklog(Series(1000.0, 2000, 500.0, 1000.0), 1000.0);
  EXPECT_FALSE(v.growing);
  EXPECT_NEAR(v.first_quarter_p50_us, 1500.0, 1e-6);
  EXPECT_NEAR(v.last_quarter_p50_us, 1500.0, 1e-6);
}

TEST(Backlog, GrowsWhenOfferedRateExceedsService) {
  // 10% over capacity: latency climbs linearly through the rung.
  BacklogVerdict v = DetectBacklog(Series(1100.0, 2000, 1000.0, 1000.0), 1000.0);
  EXPECT_TRUE(v.growing);
  EXPECT_GT(v.last_quarter_p50_us, v.first_quarter_p50_us + 1000.0);
}

TEST(Backlog, UnansweredRequestsMeanGrowth) {
  std::vector<Completion> series = Series(1000.0, 100, 10.0, 100.0);
  series[50].answered = false;
  BacklogVerdict v = DetectBacklog(series, 1000.0);
  EXPECT_TRUE(v.growing);
  EXPECT_EQ(v.unanswered, 1u);
}

TEST(Backlog, JitterWithinToleranceIsFlat) {
  std::vector<Completion> series = Series(1000.0, 400, 10.0, 1000.0);
  for (size_t i = 300; i < series.size(); ++i) series[i].done_us += 400.0;
  EXPECT_FALSE(DetectBacklog(series, 1000.0).growing);
}

KeySpace SmallKeys() {
  KeySpace keys;
  for (int c = 0; c < 30; ++c) {
    keys.concepts.push_back("concept " + std::to_string(c));
    std::vector<std::string> members;
    for (int e = 0; e <= c; ++e) members.push_back("inst" + std::to_string(c * 100 + e));
    keys.all_instances.insert(keys.all_instances.end(), members.begin(), members.end());
    keys.instances.push_back(std::move(members));
  }
  return keys;
}

TEST(RequestGenerator, SameSeedSameLines) {
  KeySpace keys = SmallKeys();
  RequestGenerator a(&keys, RequestMix{}, 42);
  RequestGenerator b(&keys, RequestMix{}, 42);
  EXPECT_EQ(a.Take(500), b.Take(500));
}

TEST(RequestGenerator, OtherSeedOtherLines) {
  KeySpace keys = SmallKeys();
  RequestGenerator a(&keys, RequestMix{}, 42);
  RequestGenerator b(&keys, RequestMix{}, 43);
  EXPECT_NE(a.Take(200), b.Take(200));
}

TEST(RequestGenerator, FollowsTheMixAndNamesKnownKeys) {
  KeySpace keys = SmallKeys();
  RequestMix mix;
  RequestGenerator gen(&keys, mix, 7);
  std::map<std::string, int> verbs;
  const int n = 20000;
  for (const std::string& line : gen.Take(n)) {
    std::string verb = line.substr(0, line.find('\t'));
    ++verbs[verb];
    std::string rest = line.substr(line.find('\t') + 1);
    if (verb == "instances-of") {
      EXPECT_EQ(rest, rest.substr(0, rest.find('\t')) + "\t" + std::to_string(mix.top_k));
    }
  }
  EXPECT_NEAR(verbs["is-a"] / static_cast<double>(n), mix.is_a, 0.02);
  EXPECT_NEAR(verbs["drift-score"] / static_cast<double>(n), mix.drift_score, 0.02);
  EXPECT_NEAR(verbs["concepts-of"] / static_cast<double>(n), mix.concepts_of, 0.02);
  EXPECT_NEAR(verbs["instances-of"] / static_cast<double>(n), mix.instances_of, 0.02);
  EXPECT_NEAR(verbs["mutex"] / static_cast<double>(n), mix.mutex, 0.02);
}

TEST(RequestGenerator, KeysAreSkewed) {
  KeySpace keys = SmallKeys();
  RequestMix mix;
  mix.is_a = 0;
  mix.drift_score = 0;
  mix.concepts_of = 0;
  mix.mutex = 0;
  mix.instances_of = 1;
  RequestGenerator gen(&keys, mix, 9);
  std::map<std::string, int> counts;
  for (const std::string& line : gen.Take(30000)) ++counts[line];
  int hottest = 0;
  for (const auto& [line, count] : counts) hottest = std::max(hottest, count);
  // Zipf(0.9) over 30 keys puts ~22% on the top key, far above uniform 3.3%.
  EXPECT_GT(hottest, 30000 / 10);
}

semdrift::TraceSpan Span(const std::string& name, uint64_t start_ms, uint64_t dur_ms,
                        uint32_t thread = 0, bool request = false) {
  semdrift::TraceSpan span;
  span.name = name;
  span.start_ns = start_ms * 1000000;
  span.dur_ns = dur_ms * 1000000;
  span.thread = thread;
  if (request) span.tags.emplace_back("request", "0");
  return span;
}

TEST(LayerTable, SelfTimesAndResidualAddUpToTheWall) {
  // Recording order is end order: c ends inside b, the request span runs on
  // another thread, the root ends last.
  std::vector<semdrift::TraceSpan> spans = {
      Span("a", 10, 5), Span("c", 25, 10), Span("b", 20, 30),
      Span("hop", 30, 40, /*thread=*/1, /*request=*/true), Span("root", 0, 100)};
  LayerTable table = BuildLayerTable(spans, "root");
  ASSERT_EQ(table.rows.size(), 3u);
  EXPECT_DOUBLE_EQ(table.wall_ms, 100.0);
  EXPECT_DOUBLE_EQ(table.Find("a")->self_ms, 5.0);
  EXPECT_DOUBLE_EQ(table.Find("c")->self_ms, 10.0);
  EXPECT_DOUBLE_EQ(table.Find("b")->self_ms, 20.0);
  EXPECT_DOUBLE_EQ(table.Find("b")->total_ms, 30.0);
  EXPECT_DOUBLE_EQ(table.residual_ms, 65.0);
  EXPECT_EQ(table.Find("hop"), nullptr);
  double covered = table.residual_ms;
  for (const LayerRow& row : table.rows) covered += row.self_ms;
  EXPECT_DOUBLE_EQ(covered, table.wall_ms);
}

TEST(LayerTable, AdjacentSiblingsAreNotNested) {
  std::vector<semdrift::TraceSpan> spans = {Span("a", 0, 50), Span("b", 50, 20),
                                            Span("a", 70, 10), Span("root", 0, 90)};
  LayerTable table = BuildLayerTable(spans, "root");
  EXPECT_DOUBLE_EQ(table.Find("b")->self_ms, 20.0);
  EXPECT_EQ(table.Count("a"), 2u);
  EXPECT_DOUBLE_EQ(table.TotalMs("a"), 60.0);
  EXPECT_DOUBLE_EQ(table.residual_ms, 10.0);
}

TEST(LayerTable, NoRootNoTable) {
  LayerTable table = BuildLayerTable({Span("a", 0, 5)}, "root");
  EXPECT_TRUE(table.rows.empty());
  EXPECT_DOUBLE_EQ(table.wall_ms, 0.0);
}

}  // namespace
}  // namespace perfbench
