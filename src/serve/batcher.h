#ifndef SEMDRIFT_SERVE_BATCHER_H_
#define SEMDRIFT_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "serve/query_engine.h"

namespace semdrift {

/// Coalescing and admission settings of one Batcher. Behind ShardRouter only
/// queued requests see them: split mutex legs, and every routed request when
/// deadline_budget_ms > 0; other socket requests are answered inline.
struct BatcherOptions {
  /// Dispatch as soon as this many requests are queued.
  size_t max_batch = 64;
  /// ... or when the oldest queued request has waited this long.
  int max_wait_ms = 1;
  /// Deadline applied to requests submitted without an explicit one;
  /// <= 0 means no deadline. Covers queue wait plus execution.
  int default_deadline_ms = 1000;
  /// Start with dispatch paused (tests use this to force coalescing
  /// deterministically: queue N requests, then Resume()).
  bool start_paused = false;
  /// Admission control: when > 0 and the observed p99 queue wait crosses
  /// this budget, low-priority requests are shed with an OVERLOADED
  /// response instead of queueing to death. Engagement is a two-level
  /// ladder with hysteresis: level 1 (shed kLow) engages at budget/2,
  /// level 2 (shed kLow+kNormal) at the full budget; each level disengages
  /// only after p99 falls below half its engage threshold. <= 0 disables
  /// shedding entirely.
  int deadline_budget_ms = 0;
  /// Sliding window over which the queue-wait p99 is computed.
  int overload_window_ms = 1000;
  /// Cap on retained wait samples (bounds Submit-side work).
  size_t overload_window_samples = 512;
};

/// Caller-declared importance of a request; shedding consumes priorities
/// from the bottom. kHigh is never shed (health probes, admin commands).
enum class RequestPriority {
  kLow = 0,
  kNormal = 1,
  kHigh = 2,
};

/// Counters for the dispatch loop (all monotone except overload_level;
/// read with Snapshot()).
struct BatcherStats {
  uint64_t requests = 0;
  uint64_t batches = 0;
  uint64_t max_batch = 0;
  uint64_t deadline_expired = 0;
  /// Requests refused with OVERLOADED.
  uint64_t shed = 0;
  /// 0 -> overloaded transitions (how often shedding engaged).
  uint64_t overload_engaged = 0;
  /// Current shedding level (0 = accepting everything).
  int overload_level = 0;
};

/// Coalesces submitted query lines into batches and executes each batch on
/// the global thread pool via the ordered ParallelMap, completing every
/// request's future with the engine's response. Because QueryEngine answers
/// are deterministic, batched/concurrent execution is bit-identical to
/// feeding the same lines to the engine serially.
///
/// Deadlines reuse util/cancellation: each request carries an absolute
/// deadline; a request whose deadline passes while queued is answered
/// `ERR deadline exceeded` without executing, and during execution the
/// remaining budget is armed on a CancellationToken installed for the
/// worker (so future long-running query kinds can poll it).
class Batcher {
 public:
  /// `engine` must outlive the batcher. Equivalent to an EngineSource that
  /// always returns this engine (single-snapshot serving).
  explicit Batcher(QueryEngine* engine, BatcherOptions options = {});
  /// Hot-swap serving: `source` is resolved once per batch, so every request
  /// in a batch is answered by one consistent generation and the returned
  /// keepalive pins that generation until the batch completes.
  explicit Batcher(EngineSource source, BatcherOptions options = {});
  /// Drains the queue (dispatching anything still pending), then stops.
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Enqueues one request line; the future yields the response line.
  std::future<std::string> Submit(std::string line);
  /// Same with an explicit deadline (<= 0: none) overriding the default.
  std::future<std::string> Submit(std::string line, int deadline_ms);
  /// Full form: explicit deadline and priority. Under overload the request
  /// may resolve immediately to "OVERLOADED\t..." without executing.
  std::future<std::string> Submit(std::string line, int deadline_ms,
                                  RequestPriority priority);

  /// Completion-callback form (the network tier's path — no future/promise
  /// allocation, no blocking get()). `done` is invoked with the response
  /// exactly once: from a pool worker normally, or synchronously on the
  /// calling thread when the request is shed or the batcher is stopping —
  /// so it must not block and must not re-enter the batcher.
  /// `record_stats == false` answers without recording ServeStats or verb
  /// metrics (shadow scatter-gather legs, counted once at the primary).
  void SubmitCallback(std::string line, int deadline_ms, RequestPriority priority,
                      std::function<void(std::string)> done,
                      bool record_stats = true);

  /// Holds dispatch so queued requests coalesce; Resume() releases them.
  void Pause();
  void Resume();

  BatcherStats Snapshot() const;

 private:
  struct Request {
    std::string line;
    std::promise<std::string> promise;
    /// When set, completion goes through the callback and the promise is
    /// never touched (SubmitCallback path).
    std::function<void(std::string)> callback;
    bool record_stats = true;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    /// When Submit() queued the request; feeds the batch.queue_wait_ns
    /// histogram at dispatch time.
    std::chrono::steady_clock::time_point submitted{};
  };

  /// Resolves a request through its callback or promise.
  static void Finish(Request* req, std::string response);
  /// Shared enqueue/shed/stopping logic behind both Submit forms.
  void SubmitRequest(Request req, int deadline_ms, RequestPriority priority);

  void DispatchLoop();
  /// Runs one batch on the pool and completes its promises.
  void RunBatch(std::deque<Request>* batch);
  /// Prunes the wait-sample window and walks the shedding ladder (engage
  /// fast, disengage hysteretically). Requires mu_.
  void RefreshOverloadLocked(std::chrono::steady_clock::time_point now);
  /// p99 over the retained window in ns; 0 when empty. Requires mu_.
  uint64_t QueueWaitP99Locked() const;

  EngineSource source_;
  BatcherOptions options_;

  mutable std::mutex mu_;
  std::condition_variable wake_;
  std::deque<Request> queue_;
  bool paused_ = false;
  bool stopping_ = false;
  BatcherStats stats_;
  /// (dispatch time, queue wait ns) per dispatched request, pruned by age
  /// and count. Shed requests contribute nothing, which is what lets p99
  /// fall back down while shedding protects the queue.
  std::deque<std::pair<std::chrono::steady_clock::time_point, uint64_t>>
      wait_samples_;
  std::thread dispatcher_;
};

}  // namespace semdrift

#endif  // SEMDRIFT_SERVE_BATCHER_H_
