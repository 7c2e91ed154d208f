#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace semdrift {

namespace {

constexpr uint64_t kListenKey = 0;
constexpr uint64_t kWakeupKey = 1;

/// Event-loop metrics, summed over every server in the process.
struct NetMetrics {
  MetricsRegistry::Counter wakeups;        ///< epoll_wait returns.
  MetricsRegistry::Counter lines;          ///< Complete request lines decoded.
  MetricsRegistry::Counter bytes_read;
  MetricsRegistry::Counter bytes_written;
  MetricsRegistry::Counter completions_inline;  ///< Answered inside Submit.
  MetricsRegistry::Counter completions_posted;  ///< Came back via the eventfd.
  MetricsRegistry::Counter backpressure_pauses;
  MetricsRegistry::Counter loop_busy_ns;   ///< Loop time outside epoll_wait.
};

NetMetrics& GetNetMetrics() {
  static NetMetrics metrics{
      GlobalMetrics().RegisterCounter("net.wakeups"),
      GlobalMetrics().RegisterCounter("net.lines"),
      GlobalMetrics().RegisterCounter("net.bytes_read"),
      GlobalMetrics().RegisterCounter("net.bytes_written"),
      GlobalMetrics().RegisterCounter("net.completions.inline"),
      GlobalMetrics().RegisterCounter("net.completions.posted"),
      GlobalMetrics().RegisterCounter("net.backpressure_pauses"),
      GlobalMetrics().RegisterCounter("net.loop_busy_ns")};
  return metrics;
}

void WakeEventFd(int fd) {
  const uint64_t one = 1;
  ssize_t n;
  do {
    n = ::write(fd, &one, sizeof(one));
  } while (n < 0 && errno == EINTR);
}

}  // namespace

/// One live connection. Owned by the loop thread; never touched elsewhere.
struct NetServer::Conn {
  int fd = -1;
  uint64_t id = 0;
  LineDecoder decoder;
  WriteQueue out;
  /// Sequence number assigned to the next decoded request line.
  uint64_t next_assign = 0;
  /// Sequence number of the next response to write (in-order gate).
  uint64_t next_send = 0;
  /// Completed responses waiting for their turn, keyed by sequence.
  std::map<uint64_t, std::string> reorder;
  /// Requests handed to the router and not yet completed.
  size_t inflight = 0;
  bool read_closed = false;
  /// EPOLLIN dropped for backpressure.
  bool paused = false;
  bool want_write = false;

  explicit Conn(size_t max_line_bytes) : decoder(max_line_bytes) {}
};

/// Bridge from router callbacks to the loop thread. Shared by shared_ptr
/// with every in-flight callback: after the server dies, `open` is false and
/// late completions are dropped without touching freed state.
struct NetServer::CompletionQueue {
  struct Item {
    uint64_t conn_id;
    uint64_t seq;
    std::string response;
  };

  /// Points at the queue while its loop thread is inside router->Submit: a
  /// completion posted then ran synchronously on the loop thread.
  static inline thread_local CompletionQueue* submitting = nullptr;
  /// Synchronous completions of the current read drain; loop thread only.
  std::vector<Item> inline_items;

  std::mutex mu;
  bool open = true;
  int wake_fd = -1;
  std::vector<Item> items;

  void Post(uint64_t conn_id, uint64_t seq, std::string response) {
    if (submitting == this) {
      // No lock, no eventfd: HandleReadable delivers it after the drain.
      inline_items.push_back(Item{conn_id, seq, std::move(response)});
      return;
    }
    std::lock_guard<std::mutex> lock(mu);
    if (!open) return;
    items.push_back(Item{conn_id, seq, std::move(response)});
    // Written under mu so Stop() can never close the fd between the open
    // check and this write.
    WakeEventFd(wake_fd);
  }
};

NetServer::NetServer(ShardRouter* router, NetServerOptions options)
    : router_(router), options_(std::move(options)) {
  if (options_.max_line_bytes == 0) options_.max_line_bytes = 1;
  GetNetMetrics();  // Registered up front so `metrics` lists them at once.
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  ListenAddress addr;
  std::string parse_error;
  if (!ParseListenAddress(options_.listen, &addr, &parse_error)) {
    return Status::InvalidArgument(parse_error);
  }

  if (addr.is_unix) {
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    if (addr.path.size() >= sizeof(sun.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " + addr.path);
    }
    std::memcpy(sun.sun_path, addr.path.c_str(), addr.path.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      return Status::IOError("socket: " + std::string(std::strerror(errno)));
    }
    // A previous instance's socket file would make bind fail with
    // EADDRINUSE even though nobody is listening; replace it.
    ::unlink(addr.path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sun), sizeof(sun)) < 0) {
      Status st = Status::IOError("bind " + addr.path + ": " +
                                  std::string(std::strerror(errno)));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return st;
    }
    unlink_path_ = addr.path;
    endpoint_ = "unix:" + addr.path;
  } else {
    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_port = htons(addr.port);
    std::string host = addr.host == "localhost" ? "127.0.0.1" : addr.host;
    if (::inet_pton(AF_INET, host.c_str(), &sin.sin_addr) != 1) {
      return Status::InvalidArgument("cannot parse IPv4 address: " + addr.host);
    }
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      return Status::IOError("socket: " + std::string(std::strerror(errno)));
    }
    const int enable = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) < 0) {
      Status st = Status::IOError("bind " + options_.listen + ": " +
                                  std::string(std::strerror(errno)));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return st;
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
    endpoint_ =
        "tcp:" + host + ":" + std::to_string(ntohs(bound.sin_port));
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status st = Status::IOError("listen: " + std::string(std::strerror(errno)));
    Stop();
    return st;
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Status st = Status::IOError("epoll/eventfd: " +
                                std::string(std::strerror(errno)));
    Stop();
    return st;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenKey;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeupKey;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  completions_ = std::make_shared<CompletionQueue>();
  completions_->wake_fd = wake_fd_;

  started_ = true;
  stop_.store(false, std::memory_order_relaxed);
  loop_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void NetServer::Stop() {
  if (loop_.joinable()) {
    stop_.store(true, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(completions_->mu);
      WakeEventFd(completions_->wake_fd);
    }
    loop_.join();
  }
  if (completions_ != nullptr) {
    // Seal the queue before closing the eventfd: a late router callback must
    // neither write a closed (possibly reused) fd nor touch freed conns.
    std::lock_guard<std::mutex> lock(completions_->mu);
    completions_->open = false;
    completions_->wake_fd = -1;
  }
  for (auto& [id, conn] : conns_) {
    ::close(conn->fd);
    closed_.fetch_add(1, std::memory_order_relaxed);
  }
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  if (!unlink_path_.empty()) {
    ::unlink(unlink_path_.c_str());
    unlink_path_.clear();
  }
  started_ = false;
}

NetServerCounters NetServer::counters() const {
  NetServerCounters c;
  c.accepted = accepted_.load(std::memory_order_relaxed);
  c.closed = closed_.load(std::memory_order_relaxed);
  c.lines = lines_.load(std::memory_order_relaxed);
  c.oversized = oversized_.load(std::memory_order_relaxed);
  c.responses = responses_.load(std::memory_order_relaxed);
  c.backpressure_pauses = backpressure_pauses_.load(std::memory_order_relaxed);
  c.dropped_responses = dropped_responses_.load(std::memory_order_relaxed);
  return c;
}

void NetServer::Loop() {
  NetMetrics& metrics = GetNetMetrics();
  epoll_event events[64];
  while (!stop_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    const auto woke = std::chrono::steady_clock::now();
    metrics.wakeups.Add();
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (stop_.load(std::memory_order_relaxed)) return;
      const uint64_t key = events[i].data.u64;
      if (key == kListenKey) {
        HandleAccept();
        continue;
      }
      if (key == kWakeupKey) {
        DrainCompletions();
        continue;
      }
      // Connections can close while earlier events in this batch are
      // handled; a stale key simply misses the map.
      auto it = conns_.find(key);
      if (it == conns_.end()) continue;
      Conn* conn = it->second.get();
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        // Abrupt disconnect (possibly mid-response): drop the connection;
        // completions still in flight will be counted as dropped.
        CloseConn(key);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        HandleWritable(conn);
        // HandleWritable may close; re-find before reading.
        it = conns_.find(key);
        if (it == conns_.end()) continue;
        conn = it->second.get();
      }
      if ((events[i].events & EPOLLIN) != 0) HandleReadable(conn);
    }
    metrics.loop_busy_ns.Add(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - woke)
            .count()));
  }
}

void NetServer::HandleAccept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or a transient accept error; epoll re-arms.
    }
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(options_.max_line_bytes);
    conn->fd = fd;
    conn->id = id;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(id, std::move(conn));
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void NetServer::HandleReadable(Conn* conn) {
  const uint64_t id = conn->id;
  char buf[16384];
  bool at_cap = false;
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      GetNetMetrics().bytes_read.Add(static_cast<uint64_t>(n));
      conn->decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
      std::string line;
      for (;;) {
        const LineDecoder::Event ev = conn->decoder.Next(&line);
        if (ev == LineDecoder::Event::kNone) break;
        if (ev == LineDecoder::Event::kOversized) {
          oversized_.fetch_add(1, std::memory_order_relaxed);
          SubmitLine(conn, std::string(), /*oversized=*/true);
        } else {
          lines_.fetch_add(1, std::memory_order_relaxed);
          GetNetMetrics().lines.Add();
          SubmitLine(conn, std::move(line), /*oversized=*/false);
        }
      }
      // Stop after the chunk that reaches a cap; every line of it is already
      // submitted, and level-triggered epoll reports the fd again once
      // reading resumes.
      if (OverCap(*conn)) {
        at_cap = true;
        break;
      }
      continue;
    }
    if (n == 0) {
      // Peer half-closed. An unterminated trailing line still counts as a
      // request ("printf 'stats' | nc -q1" style clients).
      std::string residue;
      if (conn->decoder.TakeResidue(&residue)) {
        lines_.fetch_add(1, std::memory_order_relaxed);
        GetNetMetrics().lines.Add();
        SubmitLine(conn, std::move(residue), /*oversized=*/false);
      }
      conn->read_closed = true;
      DeliverInline(conn);
      if (!PumpResponses(conn)) return;  // May close a fully-drained conn.
      SetEpoll(conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    DeliverInline(conn);
    CloseConn(id);
    return;
  }
  DeliverInline(conn);
  if (!PumpResponses(conn)) return;
  UpdateReadInterest(conn, at_cap);
}

void NetServer::HandleWritable(Conn* conn) {
  if (!PumpResponses(conn)) return;
  UpdateReadInterest(conn);
}

void NetServer::SubmitLine(Conn* conn, std::string line, bool oversized) {
  const uint64_t seq = conn->next_assign++;
  if (oversized) {
    // Local completion, same sequencing as a real one: the ERR occupies the
    // request's response slot so pipelined clients stay aligned.
    conn->reorder.emplace(
        seq, "ERR\tline too long (max " + std::to_string(options_.max_line_bytes) +
                 " bytes)");
    return;
  }
  conn->inflight++;
  std::shared_ptr<CompletionQueue> queue = completions_;
  const uint64_t conn_id = conn->id;
  CompletionQueue::submitting = queue.get();
  router_->Submit(std::move(line), options_.priority,
                  [queue, conn_id, seq](std::string response) {
                    queue->Post(conn_id, seq, std::move(response));
                  });
  CompletionQueue::submitting = nullptr;
}

void NetServer::DeliverInline(Conn* conn) {
  // Every synchronous completion of a drain belongs to the connection being
  // read: it was posted inside that connection's SubmitLine.
  std::vector<CompletionQueue::Item>& items = completions_->inline_items;
  for (CompletionQueue::Item& item : items) {
    conn->reorder.emplace(item.seq, std::move(item.response));
  }
  conn->inflight -= items.size();
  GetNetMetrics().completions_inline.Add(items.size());
  items.clear();
}

void NetServer::DrainCompletions() {
  uint64_t drain;
  while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
  }
  std::vector<CompletionQueue::Item> items;
  {
    std::lock_guard<std::mutex> lock(completions_->mu);
    items.swap(completions_->items);
  }
  GetNetMetrics().completions_posted.Add(items.size());
  // Group flushing per connection: deliver every completion first, then pump
  // each touched connection once.
  std::vector<uint64_t> touched;
  for (CompletionQueue::Item& item : items) {
    auto it = conns_.find(item.conn_id);
    if (it == conns_.end()) {
      dropped_responses_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Conn* conn = it->second.get();
    conn->reorder.emplace(item.seq, std::move(item.response));
    conn->inflight--;
    touched.push_back(item.conn_id);
  }
  for (uint64_t id : touched) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // Closed by an earlier pump.
    Conn* conn = it->second.get();
    if (!PumpResponses(conn)) continue;
    UpdateReadInterest(conn);
  }
}

bool NetServer::PumpResponses(Conn* conn) {
  std::string ready;
  while (!conn->reorder.empty() &&
         conn->reorder.begin()->first == conn->next_send) {
    std::string& response = conn->reorder.begin()->second;
    if (ready.empty()) {
      ready = std::move(response);
    } else {
      ready += response;
    }
    ready.push_back('\n');
    conn->reorder.erase(conn->reorder.begin());
    conn->next_send++;
    responses_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!ready.empty()) conn->out.Push(std::move(ready));
  const size_t queued = conn->out.pending_bytes();
  const WriteQueue::FlushResult flushed = conn->out.Flush(conn->fd);
  GetNetMetrics().bytes_written.Add(queued - conn->out.pending_bytes());
  switch (flushed) {
    case WriteQueue::FlushResult::kError:
      CloseConn(conn->id);
      return false;
    case WriteQueue::FlushResult::kBlocked:
      if (!conn->want_write) {
        conn->want_write = true;
        SetEpoll(conn);
      }
      return true;
    case WriteQueue::FlushResult::kDrained:
      if (conn->want_write) {
        conn->want_write = false;
        SetEpoll(conn);
      }
      if (conn->read_closed && conn->inflight == 0 && conn->reorder.empty()) {
        CloseConn(conn->id);
        return false;
      }
      return true;
  }
  return true;
}

bool NetServer::OverCap(const Conn& conn) const {
  return conn.inflight >= options_.max_inflight_per_conn ||
         conn.out.pending_bytes() >= options_.max_write_buffer_bytes;
}

void NetServer::UpdateReadInterest(Conn* conn, bool stopped_at_cap) {
  if (conn->read_closed) return;
  if (OverCap(*conn)) {
    if (!conn->paused) {
      conn->paused = true;
      SetEpoll(conn);
      stopped_at_cap = true;
    }
  } else if (conn->paused &&
             conn->inflight <= options_.max_inflight_per_conn / 2 &&
             conn->out.pending_bytes() <= options_.max_write_buffer_bytes / 2) {
    conn->paused = false;
    SetEpoll(conn);
  }
  if (stopped_at_cap) {
    backpressure_pauses_.fetch_add(1, std::memory_order_relaxed);
    GetNetMetrics().backpressure_pauses.Add();
  }
}

void NetServer::SetEpoll(Conn* conn) {
  epoll_event ev{};
  ev.events = 0;
  if (!conn->paused && !conn->read_closed) ev.events |= EPOLLIN;
  if (conn->want_write) ev.events |= EPOLLOUT;
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void NetServer::CloseConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  conns_.erase(it);
  closed_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace semdrift
