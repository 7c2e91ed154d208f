#ifndef SEMDRIFT_UTIL_THREAD_POOL_H_
#define SEMDRIFT_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace semdrift {

/// Number of hardware threads, always >= 1.
int HardwareThreads();

/// The process-wide worker count used by the free ParallelFor/ParallelMap.
/// Resolution order: SetGlobalThreadCount() override, then the
/// SEMDRIFT_THREADS environment variable, then HardwareThreads().
int GlobalThreadCount();

/// Overrides the global worker count (the CLI's --threads flag). Passing 0
/// restores automatic resolution (SEMDRIFT_THREADS / hardware).
void SetGlobalThreadCount(int num_threads);

/// Fixed-size pool of worker threads executing index-parallel loops.
///
/// Determinism contract: ParallelMap writes result i to slot i, so the
/// returned vector is identical for every thread count — an *ordered
/// reduction*. ParallelFor imposes no ordering between iterations; bodies
/// must only touch disjoint state per index (or synchronize themselves).
/// Every per-concept pipeline stage in this codebase combines the two with
/// per-task seeded RNG streams so that parallel output is bit-identical to
/// a single-threaded run.
///
/// Exceptions thrown by a body are captured; the one from the lowest
/// throwing index is rethrown on the calling thread after the loop drains
/// (remaining unclaimed indices are abandoned). Nested parallel regions run
/// inline on the calling thread rather than deadlocking the pool.
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (the calling thread participates in
  /// every loop). Values < 1 are clamped to 1 (a no-worker, inline pool).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs body(0) ... body(n - 1), partitioned dynamically across the pool.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  /// Ordered map: out[i] = body(i). T must be default-constructible and
  /// movable.
  template <typename T>
  std::vector<T> ParallelMap(size_t n, const std::function<T(size_t)>& body) {
    std::vector<T> out(n);
    ParallelFor(n, [&](size_t i) { out[i] = body(i); });
    return out;
  }

 private:
  struct Job;

  void WorkerLoop();
  /// Claims and runs indices of `job` until exhausted.
  static void RunJob(Job* job);

  int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> current_job_;
  uint64_t job_generation_ = 0;
  bool shutting_down_ = false;
};

/// Index-parallel loop over the lazily-created global pool (sized by
/// GlobalThreadCount(); rebuilt when the count changes between calls).
void ParallelFor(size_t n, const std::function<void(size_t)>& body);

/// Ordered parallel map over the global pool: out[i] = body(i) with results
/// placed by index, so output is independent of the thread count.
template <typename T>
std::vector<T> ParallelMap(size_t n, const std::function<T(size_t)>& body) {
  std::vector<T> out(n);
  ParallelFor(n, [&](size_t i) { out[i] = body(i); });
  return out;
}

/// A contiguous split of [0, n) into blocks, for loops that keep scratch per
/// block or whose iterations are too small to dispatch one by one. Block b
/// covers [Begin(b), End(b)).
struct BlockRange {
  size_t n = 0;
  size_t blocks = 1;
  size_t Begin(size_t b) const { return n * b / blocks; }
  size_t End(size_t b) const { return n * (b + 1) / blocks; }
};

/// At most GlobalThreadCount() blocks of at least `grain` indices each (one
/// block when n < 2 * grain). `grain` is where a block's work outweighs the
/// cost of a pool dispatch.
BlockRange SplitBlocks(size_t n, size_t grain);

/// Runs body(block, begin, end) for every block of `range` on the global
/// pool; a single block runs inline on the calling thread. Which block runs
/// where never changes what a block computes, so a body that writes only
/// its own indices gives the same result at every thread count.
void ParallelForBlocks(const BlockRange& range,
                       const std::function<void(size_t, size_t, size_t)>& body);

/// Deterministic per-task seed stream: mixes a base seed with a task index
/// so that task t's Rng is independent of how tasks are scheduled. Used by
/// every parallelized stochastic stage (random-forest trees, fuzz sweeps)
/// to keep parallel output bit-identical to serial.
uint64_t TaskSeed(uint64_t base_seed, uint64_t task_index);

}  // namespace semdrift

#endif  // SEMDRIFT_UTIL_THREAD_POOL_H_
