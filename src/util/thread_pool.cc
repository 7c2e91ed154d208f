#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <limits>

#include "obs/metrics.h"
#include "util/cancellation.h"
#include "util/string_util.h"

namespace semdrift {

namespace {

/// Pre-registered handles: top-level parallel jobs pay one relaxed atomic
/// add per counter, never a registry lookup.
struct PoolMetrics {
  MetricsRegistry::Counter jobs;
  MetricsRegistry::Counter tasks;
  MetricsRegistry::Histogram job_ns;
};

PoolMetrics& GetPoolMetrics() {
  static PoolMetrics metrics{
      GlobalMetrics().RegisterCounter("pool.jobs"),
      GlobalMetrics().RegisterCounter("pool.tasks"),
      GlobalMetrics().RegisterHistogram("pool.job_ns", LatencyBucketsNs())};
  return metrics;
}

/// Times one top-level job; the destructor records even when a loop body
/// throws and the exception propagates to the submitter.
struct JobTimer {
  bool active = false;
  std::chrono::steady_clock::time_point start;

  explicit JobTimer(bool top_level, size_t n) : active(top_level) {
    if (!active) return;
    PoolMetrics& metrics = GetPoolMetrics();
    metrics.jobs.Add();
    metrics.tasks.Add(n);
    start = std::chrono::steady_clock::now();
  }
  ~JobTimer() {
    if (!active) return;
    auto elapsed = std::chrono::steady_clock::now() - start;
    GetPoolMetrics().job_ns.Observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  }
};

/// Set while a thread is executing loop bodies (worker or caller); nested
/// parallel regions detect it and run inline instead of re-entering the pool.
thread_local bool t_in_parallel_region = false;

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool>* GlobalPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return &pool;
}

int g_thread_override = 0;  // 0 = auto (env / hardware).

int EnvThreads() {
  static int cached = [] {
    const char* env = std::getenv("SEMDRIFT_THREADS");
    if (env == nullptr || *env == '\0') return 0;
    uint64_t value = 0;
    if (!ParseUint64(env, &value) || value == 0 ||
        value > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
      return 0;  // Malformed values fall back to auto rather than crash.
    }
    return static_cast<int>(value);
  }();
  return cached;
}

}  // namespace

int HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int GlobalThreadCount() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_thread_override > 0) return g_thread_override;
  int env = EnvThreads();
  return env > 0 ? env : HardwareThreads();
}

void SetGlobalThreadCount(int num_threads) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_thread_override = num_threads > 0 ? num_threads : 0;
}

BlockRange SplitBlocks(size_t n, size_t grain) {
  BlockRange range;
  range.n = n;
  size_t most = n / std::max<size_t>(grain, 1);
  range.blocks = std::max<size_t>(
      1, std::min(most, static_cast<size_t>(GlobalThreadCount())));
  return range;
}

void ParallelForBlocks(const BlockRange& range,
                       const std::function<void(size_t, size_t, size_t)>& body) {
  if (range.n == 0) return;
  if (range.blocks == 1) {
    body(0, 0, range.n);
    return;
  }
  ParallelFor(range.blocks,
              [&](size_t b) { body(b, range.Begin(b), range.End(b)); });
}

uint64_t TaskSeed(uint64_t base_seed, uint64_t task_index) {
  // SplitMix64 finalizer over (seed, index): decorrelates adjacent indices
  // so per-task Rng streams are independent regardless of scheduling.
  uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (task_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct ThreadPool::Job {
  const std::function<void(size_t)>* body = nullptr;
  size_t n = 0;
  /// The submitting thread's cancellation token, installed in every worker
  /// for the job's duration — cooperative cancellation of a guarded stage
  /// reaches its parallel sub-work (e.g. per-tree forest fits).
  const CancellationToken* cancellation = nullptr;
  std::atomic<size_t> next{0};
  /// Threads currently inside RunJob (caller included).
  std::atomic<int> active{0};

  std::mutex err_mu;
  size_t first_error_index = std::numeric_limits<size_t>::max();
  std::exception_ptr error;
};

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  workers_.reserve(num_threads_ - 1);
  for (int i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunJob(Job* job) {
  bool was_in_region = t_in_parallel_region;
  t_in_parallel_region = true;
  // No-op on the submitting thread (its token is already current); forwards
  // the token to pool workers.
  ScopedCancellation forward_token(job->cancellation);
  for (;;) {
    size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job->n) break;
    try {
      (*job->body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job->err_mu);
      if (i < job->first_error_index) {
        job->first_error_index = i;
        job->error = std::current_exception();
      }
      // Abandon unclaimed indices; in-flight ones finish normally.
      job->next.store(job->n, std::memory_order_relaxed);
    }
  }
  t_in_parallel_region = was_in_region;
}

void ThreadPool::WorkerLoop() {
  uint64_t last_seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutting_down_ ||
               (current_job_ != nullptr && job_generation_ != last_seen);
      });
      if (shutting_down_) return;
      last_seen = job_generation_;
      job = current_job_;
      job->active.fetch_add(1, std::memory_order_relaxed);
    }
    RunJob(job.get());
    {
      std::lock_guard<std::mutex> lock(mu_);
      job->active.fetch_sub(1, std::memory_order_relaxed);
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  if (n == 0) return;
  JobTimer timer(!t_in_parallel_region, n);
  // Serial fast path: single-thread pool, single task, or nested region.
  if (workers_.empty() || n == 1 || t_in_parallel_region) {
    bool was_in_region = t_in_parallel_region;
    t_in_parallel_region = true;
    struct RegionGuard {
      bool restore;
      ~RegionGuard() { t_in_parallel_region = restore; }
    } guard{was_in_region};
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto job = std::make_shared<Job>();
  job->body = &body;
  job->n = n;
  job->cancellation = CancellationToken::Current();
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_job_ = job;
    ++job_generation_;
  }
  work_cv_.notify_all();

  RunJob(job.get());  // The calling thread participates.

  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return job->next.load(std::memory_order_relaxed) >= job->n &&
             job->active.load(std::memory_order_relaxed) == 0;
    });
    current_job_.reset();
  }
  if (job->error) std::rethrow_exception(job->error);
}

void ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  if (n == 0) return;
  // Resolve the desired width, (re)building the shared pool when the global
  // control changed since the last call. Nested calls never reach the pool.
  if (t_in_parallel_region) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool* pool = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_pool_mu);
    int want = g_thread_override > 0
                   ? g_thread_override
                   : (EnvThreads() > 0 ? EnvThreads() : HardwareThreads());
    std::unique_ptr<ThreadPool>* slot = GlobalPoolSlot();
    if (*slot == nullptr || (*slot)->num_threads() != want) {
      slot->reset();  // Join the old pool before replacing it.
      *slot = std::make_unique<ThreadPool>(want);
    }
    pool = slot->get();
  }
  pool->ParallelFor(n, body);
}

}  // namespace semdrift
