#include "serve/batcher.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/cancellation.h"
#include "util/thread_pool.h"

namespace semdrift {

namespace {

struct BatchMetrics {
  MetricsRegistry::Counter requests;
  MetricsRegistry::Counter batches;
  MetricsRegistry::Histogram batch_size;
  MetricsRegistry::Histogram queue_wait_ns;
  MetricsRegistry::Counter shed;
  MetricsRegistry::Counter overload_engaged;
  MetricsRegistry::Gauge overload_level;
};

BatchMetrics& GetBatchMetrics() {
  static BatchMetrics metrics{
      GlobalMetrics().RegisterCounter("batch.requests"),
      GlobalMetrics().RegisterCounter("batch.batches"),
      GlobalMetrics().RegisterHistogram("batch.size", SizeBuckets()),
      GlobalMetrics().RegisterHistogram("batch.queue_wait_ns", LatencyBucketsNs()),
      GlobalMetrics().RegisterCounter("batch.shed"),
      GlobalMetrics().RegisterCounter("batch.overload.engaged"),
      GlobalMetrics().RegisterGauge("batch.overload.level")};
  return metrics;
}

/// The fixed OVERLOADED response line (tests and clients match it verbatim).
constexpr const char* kOverloadedResponse =
    "OVERLOADED\tqueue-wait p99 over deadline budget; request shed";

}  // namespace

Batcher::Batcher(QueryEngine* engine, BatcherOptions options)
    : Batcher(EngineSource([engine] { return EnginePin{engine, nullptr}; }),
              options) {}

Batcher::Batcher(EngineSource source, BatcherOptions options)
    : source_(std::move(source)), options_(options) {
  // Registered up front: a batcher that has not queued anything yet still
  // exports batch.* (a router whose requests all answer inline is one).
  GetBatchMetrics();
  if (options_.max_batch == 0) options_.max_batch = 1;
  paused_ = options_.start_paused;
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

Batcher::~Batcher() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    paused_ = false;  // A paused batcher still drains on shutdown.
  }
  wake_.notify_all();
  dispatcher_.join();
}

std::future<std::string> Batcher::Submit(std::string line) {
  return Submit(std::move(line), options_.default_deadline_ms,
                RequestPriority::kNormal);
}

std::future<std::string> Batcher::Submit(std::string line, int deadline_ms) {
  return Submit(std::move(line), deadline_ms, RequestPriority::kNormal);
}

std::future<std::string> Batcher::Submit(std::string line, int deadline_ms,
                                         RequestPriority priority) {
  Request req;
  req.line = std::move(line);
  std::future<std::string> future = req.promise.get_future();
  SubmitRequest(std::move(req), deadline_ms, priority);
  return future;
}

void Batcher::SubmitCallback(std::string line, int deadline_ms,
                             RequestPriority priority,
                             std::function<void(std::string)> done,
                             bool record_stats) {
  Request req;
  req.line = std::move(line);
  req.callback = std::move(done);
  req.record_stats = record_stats;
  SubmitRequest(std::move(req), deadline_ms, priority);
}

void Batcher::Finish(Request* req, std::string response) {
  if (req->callback) {
    req->callback(std::move(response));
  } else {
    req->promise.set_value(std::move(response));
  }
}

void Batcher::SubmitRequest(Request req, int deadline_ms,
                            RequestPriority priority) {
  req.submitted = std::chrono::steady_clock::now();
  GetBatchMetrics().requests.Add();
  if (deadline_ms > 0) {
    req.has_deadline = true;
    req.deadline = req.submitted + std::chrono::milliseconds(deadline_ms);
  }
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      Finish(&req, "ERR\tserver shutting down");
      return;
    }
    if (options_.deadline_budget_ms > 0) {
      RefreshOverloadLocked(req.submitted);
      // Level 1 sheds kLow, level 2 sheds kLow and kNormal. kHigh is always
      // admitted — overload must never blind the operator's probes.
      shed = (stats_.overload_level >= 1 && priority == RequestPriority::kLow) ||
             (stats_.overload_level >= 2 && priority != RequestPriority::kHigh);
    }
    if (shed) {
      stats_.shed++;
    } else {
      queue_.push_back(std::move(req));
      stats_.requests++;
    }
  }
  if (shed) {
    GetBatchMetrics().shed.Add();
    Finish(&req, kOverloadedResponse);
    return;
  }
  wake_.notify_all();
}

void Batcher::RefreshOverloadLocked(std::chrono::steady_clock::time_point now) {
  const auto horizon = now - std::chrono::milliseconds(options_.overload_window_ms);
  while (!wait_samples_.empty() && wait_samples_.front().first < horizon) {
    wait_samples_.pop_front();
  }
  while (wait_samples_.size() > options_.overload_window_samples) {
    wait_samples_.pop_front();
  }
  const uint64_t p99 = QueueWaitP99Locked();
  const uint64_t budget_ns =
      static_cast<uint64_t>(options_.deadline_budget_ms) * 1000000ull;
  const uint64_t engage[3] = {0, budget_ns / 2, budget_ns};
  const uint64_t disengage[3] = {0, budget_ns / 4, budget_ns / 2};
  int target = 0;
  if (p99 >= engage[2]) {
    target = 2;
  } else if (p99 >= engage[1]) {
    target = 1;
  }
  int level = stats_.overload_level;
  if (target > level) {
    // Engage immediately: the queue is drowning now.
    level = target;
  } else {
    // Disengage one rung at a time, and only once p99 has fallen well below
    // the rung's engage point — the hysteresis that stops flapping at the
    // boundary.
    while (level > target && p99 < disengage[level]) --level;
  }
  if (level != stats_.overload_level) {
    if (stats_.overload_level == 0 && level > 0) {
      stats_.overload_engaged++;
      GetBatchMetrics().overload_engaged.Add();
    }
    stats_.overload_level = level;
    GetBatchMetrics().overload_level.Set(level);
  }
}

uint64_t Batcher::QueueWaitP99Locked() const {
  if (wait_samples_.empty()) return 0;
  std::vector<uint64_t> waits;
  waits.reserve(wait_samples_.size());
  for (const auto& [at, ns] : wait_samples_) waits.push_back(ns);
  const size_t idx = (waits.size() - 1) * 99 / 100;
  std::nth_element(waits.begin(), waits.begin() + static_cast<ptrdiff_t>(idx),
                   waits.end());
  return waits[idx];
}

void Batcher::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void Batcher::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  wake_.notify_all();
}

BatcherStats Batcher::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void Batcher::DispatchLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [this] {
      return stopping_ || (!paused_ && !queue_.empty());
    });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    // Coalesce: take what is already queued; if the batch is still small,
    // linger up to max_wait_ms for stragglers (but never past a deadline
    // already in the queue — expiring while parked would be self-inflicted).
    if (!stopping_ && queue_.size() < options_.max_batch &&
        options_.max_wait_ms > 0) {
      auto park_until = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.max_wait_ms);
      for (const Request& r : queue_) {
        if (r.has_deadline && r.deadline < park_until) park_until = r.deadline;
      }
      wake_.wait_until(lock, park_until, [this] {
        return stopping_ || queue_.size() >= options_.max_batch;
      });
      if (paused_ && !stopping_) continue;
    }
    std::deque<Request> batch;
    while (!queue_.empty() && batch.size() < options_.max_batch) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    stats_.batches++;
    stats_.max_batch = std::max<uint64_t>(stats_.max_batch, batch.size());
    if (options_.deadline_budget_ms > 0) {
      // Feed the overload window at dispatch time (one clock read per
      // batch): the wait these requests actually endured is what decides
      // whether the next Submit() is admitted.
      const auto now = std::chrono::steady_clock::now();
      for (const Request& r : batch) {
        wait_samples_.emplace_back(
            now, static_cast<uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         now - r.submitted)
                         .count()));
      }
      RefreshOverloadLocked(now);
    }
    lock.unlock();
    RunBatch(&batch);
    lock.lock();
  }
}

void Batcher::RunBatch(std::deque<Request>* batch) {
  const size_t n = batch->size();
  const auto now = std::chrono::steady_clock::now();
  BatchMetrics& metrics = GetBatchMetrics();
  metrics.batches.Add();
  metrics.batch_size.Observe(static_cast<double>(n));
  for (const Request& req : *batch) {
    metrics.queue_wait_ns.Observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - req.submitted)
            .count()));
  }
  // One generation per batch: resolve the pin once so every request in the
  // batch sees the same snapshot, held alive until the promises are set.
  EnginePin pin = source_();
  QueryEngine* engine = pin.engine;
  std::vector<std::string> responses = ParallelMap<std::string>(n, [&](size_t i) {
    Request& req = (*batch)[i];
    if (engine == nullptr) {
      return std::string("ERR\tno snapshot generation available");
    }
    if (req.has_deadline) {
      if (req.deadline <= now) return std::string("ERR\tdeadline exceeded");
      CancellationToken token;
      token.ArmDeadline(std::chrono::duration_cast<std::chrono::milliseconds>(
          req.deadline - now));
      ScopedCancellation scoped(&token);
      return engine->Answer(req.line, req.record_stats);
    }
    return engine->Answer(req.line, req.record_stats);
  });
  // Record expiries before fulfilling any promise: a waiter woken by get()
  // must already see its request counted in Snapshot().
  uint64_t expired = 0;
  for (size_t i = 0; i < n; ++i) {
    if (responses[i] == "ERR\tdeadline exceeded") expired++;
  }
  if (expired > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.deadline_expired += expired;
  }
  for (size_t i = 0; i < n; ++i) {
    Finish(&(*batch)[i], std::move(responses[i]));
  }
}

}  // namespace semdrift
