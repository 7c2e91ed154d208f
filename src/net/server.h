#ifndef SEMDRIFT_NET_SERVER_H_
#define SEMDRIFT_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "net/line_channel.h"
#include "net/router.h"
#include "util/status.h"

namespace semdrift {

struct NetServerOptions {
  /// "tcp:host:port" (port 0 picks a free port), "unix:/path", or bare
  /// "host:port".
  std::string listen = "tcp:127.0.0.1:0";
  /// Request lines longer than this are discarded and answered with an ERR
  /// in their response slot (the connection stays framed).
  size_t max_line_bytes = 64 * 1024;
  /// Per-connection backpressure: stop reading when the unsent response
  /// bytes exceed this; resume below half.
  size_t max_write_buffer_bytes = 4 * 1024 * 1024;
  /// ... or when this many requests are in flight for one connection.
  size_t max_inflight_per_conn = 1024;
  /// Priority socket requests are submitted with (the admission ladder sheds
  /// from the bottom).
  RequestPriority priority = RequestPriority::kNormal;
};

/// Monotone counters for the event loop (torn reads fine; diagnostics only).
struct NetServerCounters {
  uint64_t accepted = 0;
  uint64_t closed = 0;
  uint64_t lines = 0;      ///< Complete request lines decoded.
  uint64_t oversized = 0;  ///< Lines over max_line_bytes (answered with ERR).
  uint64_t responses = 0;  ///< Response lines queued for write.
  uint64_t backpressure_pauses = 0;
  uint64_t dropped_responses = 0;  ///< Completions for already-closed conns.
};

/// Non-blocking TCP/unix-socket front-end speaking the line protocol: one
/// request line in, one response line out, pipelining allowed. A single
/// epoll thread owns every connection. Requests the router answers inside
/// Submit (point verbs, stats, metrics) run on this thread; their responses
/// are collected per read drain and placed in the connection's reorder
/// buffer after it, with no lock and no eventfd, so one flush covers the
/// drain and they still count as in flight until then. Requests the router
/// queues (split mutex legs, admission mode) complete on pool threads and
/// come back through an eventfd-signalled queue.
///
/// Ordering guarantee: responses are written in request order per
/// connection. Queued requests complete out of order, so each connection
/// assigns a sequence number per request and holds completed responses in a
/// reorder buffer until their turn. Oversized lines consume a sequence slot
/// (their ERR is a local completion), which keeps the stream aligned for
/// pipelined clients.
///
/// Backpressure: a read drain stops after the chunk that brings its
/// connection to max_inflight_per_conn or max_write_buffer_bytes, so one
/// pipelining client cannot monopolize the loop.
///
/// Partial-I/O safety: reads feed an incremental LineDecoder (verbs split
/// across reads reassemble); writes go through a WriteQueue surviving
/// partial writes/EAGAIN with MSG_NOSIGNAL. Abrupt disconnects mid-response
/// close the connection; late completions are dropped and counted.
class NetServer {
 public:
  /// `router` must outlive the server.
  NetServer(ShardRouter* router, NetServerOptions options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and starts the event-loop thread.
  Status Start();

  /// Stops the loop, closes every connection and the listener (unlinking a
  /// unix socket path). Idempotent.
  void Stop();

  /// Resolved address after Start() — "tcp:127.0.0.1:<port>" with the real
  /// port when 0 was requested, or "unix:<path>".
  const std::string& endpoint() const { return endpoint_; }

  NetServerCounters counters() const;

 private:
  struct Conn;
  struct CompletionQueue;

  void Loop();
  void HandleAccept();
  void HandleReadable(Conn* conn);
  void HandleWritable(Conn* conn);
  void DrainCompletions();
  /// Submits one decoded line (or an oversized-line error) for `conn`.
  void SubmitLine(Conn* conn, std::string line, bool oversized);
  /// Moves the synchronous completions of the current drain into `conn`'s
  /// reorder buffer.
  void DeliverInline(Conn* conn);
  /// Moves any in-order responses from the reorder buffer to the write
  /// queue as one chunk (one send for the lot), flushes, and closes a
  /// drained half-closed connection. Returns false when the connection was
  /// closed (the pointer is then dead).
  bool PumpResponses(Conn* conn);
  /// True when `conn` is at its in-flight or write-buffer cap.
  bool OverCap(const Conn& conn) const;
  /// Pauses reading at a cap and resumes below half of both. Counts a
  /// backpressure pause when it pauses or when `stopped_at_cap` (a read
  /// drain stopped early at a cap).
  void UpdateReadInterest(Conn* conn, bool stopped_at_cap = false);
  /// Re-arms the connection's epoll interest from its paused/read_closed/
  /// want_write flags.
  void SetEpoll(Conn* conn);
  void CloseConn(uint64_t id);

  ShardRouter* router_;
  NetServerOptions options_;
  std::string endpoint_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  /// Path to unlink on Stop() (unix listeners only).
  std::string unlink_path_;

  std::shared_ptr<CompletionQueue> completions_;
  std::map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = wakeup eventfd.

  std::thread loop_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> lines_{0};
  std::atomic<uint64_t> oversized_{0};
  std::atomic<uint64_t> responses_{0};
  std::atomic<uint64_t> backpressure_pauses_{0};
  std::atomic<uint64_t> dropped_responses_{0};
};

}  // namespace semdrift

#endif  // SEMDRIFT_NET_SERVER_H_
