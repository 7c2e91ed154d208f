// Open-loop load generation. Requests are due on a fixed schedule (evenly
// spaced at the offered rate) and are sent when due whatever the system is
// doing, so a stall shows up as latency of the requests behind it. Every
// latency is measured from the request's due time.
//
// One sender thread issues requests; completions arrive from the target's
// own threads (a socket reader, batcher workers) or inline.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "stats.h"
#include "util/status.h"

namespace perfbench {

/// Microseconds on the steady clock since the first call; every timestamp
/// the benchmark compares (request times, swap times, spans) uses it.
double MonoUs();

/// One request of a run; times from MonoUs().
struct RequestRecord {
  double due_us = 0.0;
  double sent_us = 0.0;
  double done_us = 0.0;
  bool answered = false;
  std::string response;
};

struct LoadRun {
  double rate = 0.0;
  std::vector<RequestRecord> records;
  /// Largest number of requests sent but not yet answered, sampled at
  /// every send.
  size_t outstanding_max = 0;
  /// First due time to last answer.
  double wall_s = 0.0;

  size_t answered() const;
  /// Latency from due time of every answered request.
  std::vector<double> LatenciesUs() const;
  /// How late the generator sent each request (sent - due).
  std::vector<double> LatenessUs() const;
  std::vector<Completion> Completions() const;
  /// Answers per second over the run's wall time.
  double AchievedRate() const;
};

/// Drives `n` requests at `rate` per second. The submit callback receives a
/// half-open index range of requests that are due now; the target must
/// eventually report each through Complete() (from any thread).
class OpenLoop {
 public:
  using Submit = std::function<void(size_t begin, size_t end)>;

  OpenLoop(size_t n, double rate);
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Thread-safe for distinct indices; completions after Finish() are
  /// ignored.
  void Complete(size_t index, std::string response);

  /// Records every completion as a request span `name` (sent to answered)
  /// under the span `parent` (traced runs).
  void TraceAs(const char* name, uint64_t parent) {
    trace_name_ = name;
    trace_parent_ = parent;
  }

  /// Sends every request on schedule, then waits up to `drain_timeout_s`
  /// for outstanding answers. Call from one thread, once.
  void Drive(const Submit& submit, double drain_timeout_s);

  /// Seals the run and returns its records. Call after the target can no
  /// longer complete requests (its threads joined or drained).
  LoadRun Finish();


 private:
  enum State : uint8_t { kPending = 0, kWriting = 1, kDone = 2, kAbandoned = 3 };

  size_t n_;
  double rate_;
  std::vector<RequestRecord> records_;
  std::unique_ptr<std::atomic<uint8_t>[]> state_;
  std::atomic<size_t> completed_{0};
  size_t outstanding_max_ = 0;
  const char* trace_name_ = nullptr;
  uint64_t trace_parent_ = 0;
};

/// Pipelined line-protocol client over up to four unix-socket connections;
/// requests go round-robin, one reader thread matches responses to requests
/// by per-connection order (the server answers each connection in order).
class SocketTarget {
 public:
  static semdrift::Result<std::unique_ptr<SocketTarget>> Connect(
      const std::string& path, int connections, OpenLoop* loop,
      const std::vector<std::string>* lines);
  ~SocketTarget();
  SocketTarget(const SocketTarget&) = delete;
  SocketTarget& operator=(const SocketTarget&) = delete;

  /// Sends lines [begin, end) (sender thread only).
  void Submit(size_t begin, size_t end);
  /// Stops the reader and closes every connection. Idempotent.
  void Close();

 private:
  struct Conn {
    int fd = -1;
    std::mutex mu;
    std::vector<size_t> inflight;  // FIFO of request indices.
    size_t inflight_head = 0;
    std::string read_buffer;
    std::string write_buffer;
  };

  SocketTarget(OpenLoop* loop, const std::vector<std::string>* lines);
  void ReadLoop();

  OpenLoop* loop_;
  const std::vector<std::string>* lines_;
  std::vector<std::unique_ptr<Conn>> conns_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::thread reader_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
