#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace semdrift {
namespace {

TEST(ThreadPoolTest, ParallelMapIsOrderedAtEveryPoolSize) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (size_t n : {size_t{0}, size_t{1}, size_t{100}}) {
      std::vector<int> out = pool.ParallelMap<int>(
          n, [](size_t i) { return static_cast<int>(i * i); });
      ASSERT_EQ(out.size(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], static_cast<int>(i * i)) << "threads=" << threads;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, MoreThreadsThanTasks) {
  ThreadPool pool(8);
  std::vector<int> out =
      pool.ParallelMap<int>(3, [](size_t i) { return static_cast<int>(i) + 10; });
  EXPECT_EQ(out, (std::vector<int>{10, 11, 12}));
}

TEST(ThreadPoolTest, ExceptionFromBodyPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [](size_t i) {
                         if (i == 17) throw std::runtime_error("task 17 failed");
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, LowestThrowingIndexWins) {
  // Several tasks throw; the caller must always see the error of the lowest
  // index regardless of scheduling.
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    std::string seen;
    try {
      pool.ParallelFor(100, [](size_t i) {
        if (i % 7 == 3) {  // 3 is the lowest thrower.
          throw std::runtime_error("boom@" + std::to_string(i));
        }
      });
      FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
      seen = e.what();
    }
    EXPECT_EQ(seen, "boom@3") << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, AllTasksThrowingStillReportsLowest) {
  ThreadPool pool(4);
  std::string seen;
  try {
    pool.ParallelFor(32, [](size_t i) {
      throw std::runtime_error("all@" + std::to_string(i));
    });
  } catch (const std::runtime_error& e) {
    seen = e.what();
  }
  EXPECT_EQ(seen, "all@0");
}

TEST(ThreadPoolTest, PoolIsReusableAfterAnException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(8, [](size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::vector<int> out =
      pool.ParallelMap<int>(8, [](size_t i) { return static_cast<int>(i); });
  std::vector<int> want(8);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(out, want);
}

TEST(ThreadPoolTest, NestedParallelRegionsRunInline) {
  // A body that itself calls the free ParallelFor must not deadlock; the
  // inner region runs inline on the worker.
  SetGlobalThreadCount(4);
  std::atomic<int> total{0};
  ParallelFor(8, [&](size_t) {
    ParallelFor(8, [&](size_t) { ++total; });
  });
  SetGlobalThreadCount(0);
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, GlobalThreadCountOverride) {
  SetGlobalThreadCount(3);
  EXPECT_EQ(GlobalThreadCount(), 3);
  SetGlobalThreadCount(0);  // Back to automatic resolution.
  EXPECT_GE(GlobalThreadCount(), 1);
  EXPECT_GE(HardwareThreads(), 1);
}

TEST(ThreadPoolTest, SplitBlocksCoversTheRangeOnce) {
  SetGlobalThreadCount(4);
  EXPECT_EQ(SplitBlocks(10, 8).blocks, 1u);    // Under two grains: inline.
  EXPECT_EQ(SplitBlocks(17, 8).blocks, 2u);
  EXPECT_EQ(SplitBlocks(1000, 8).blocks, 4u);  // Capped at the pool width.
  EXPECT_EQ(SplitBlocks(0, 8).blocks, 1u);
  for (size_t n : {0u, 1u, 7u, 100u, 1001u}) {
    BlockRange range = SplitBlocks(n, 3);
    std::vector<std::atomic<int>> hits(n);
    std::atomic<size_t> blocks_run{0};
    ParallelForBlocks(range, [&](size_t b, size_t begin, size_t end) {
      EXPECT_EQ(begin, range.Begin(b));
      EXPECT_EQ(end, range.End(b));
      ++blocks_run;
      for (size_t i = begin; i < end; ++i) ++hits[i];
    });
    EXPECT_EQ(blocks_run.load(), n == 0 ? 0u : range.blocks) << "n " << n;
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "n " << n;
  }
  SetGlobalThreadCount(0);
}

TEST(ThreadPoolTest, TaskSeedStreamsAreDistinctAndStable) {
  // Same (base, index) -> same seed; different index or base -> different.
  EXPECT_EQ(TaskSeed(2014, 5), TaskSeed(2014, 5));
  EXPECT_NE(TaskSeed(2014, 5), TaskSeed(2014, 6));
  EXPECT_NE(TaskSeed(2014, 5), TaskSeed(2015, 5));
  std::vector<uint64_t> seeds;
  for (uint64_t i = 0; i < 100; ++i) seeds.push_back(TaskSeed(42, i));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
}

}  // namespace
}  // namespace semdrift
