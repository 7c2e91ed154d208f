#include "loadgen.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "spans.h"

namespace perfbench {

double MonoUs() {
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   origin)
      .count();
}

size_t LoadRun::answered() const {
  size_t count = 0;
  for (const RequestRecord& r : records) count += r.answered ? 1 : 0;
  return count;
}

std::vector<double> LoadRun::LatenciesUs() const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const RequestRecord& r : records) {
    if (r.answered) out.push_back(r.done_us - r.due_us);
  }
  return out;
}

std::vector<double> LoadRun::LatenessUs() const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const RequestRecord& r : records) out.push_back(r.sent_us - r.due_us);
  return out;
}

std::vector<Completion> LoadRun::Completions() const {
  std::vector<Completion> out;
  out.reserve(records.size());
  for (const RequestRecord& r : records) {
    out.push_back(Completion{r.due_us, r.done_us, r.answered});
  }
  return out;
}

double LoadRun::AchievedRate() const {
  return wall_s > 0.0 ? static_cast<double>(answered()) / wall_s : 0.0;
}

OpenLoop::OpenLoop(size_t n, double rate)
    : n_(n),
      rate_(rate),
      records_(n),
      state_(new std::atomic<uint8_t>[n]) {
  for (size_t i = 0; i < n; ++i) state_[i].store(kPending, std::memory_order_relaxed);
}

void OpenLoop::Complete(size_t index, std::string response) {
  if (index >= n_) return;
  uint8_t expected = kPending;
  if (!state_[index].compare_exchange_strong(expected, kWriting,
                                             std::memory_order_acq_rel)) {
    return;
  }
  RequestRecord& record = records_[index];
  record.done_us = MonoUs();
  record.response = std::move(response);
  record.answered = true;
  if (trace_name_ != nullptr) {
    RecordRequestSpan(trace_name_, record.done_us - record.sent_us, index, trace_parent_);
  }
  state_[index].store(kDone, std::memory_order_release);
  completed_.fetch_add(1, std::memory_order_acq_rel);
}

void OpenLoop::Drive(const Submit& submit, double drain_timeout_s) {
  // Sleep precisely: the default 50 us timer slack would bunch sends.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const double interval_us = 1e6 / rate_;
  const double first_due_us = MonoUs() + 1000.0;
  for (size_t i = 0; i < n_; ++i) {
    records_[i].due_us = first_due_us + interval_us * static_cast<double>(i);
  }
  size_t next = 0;
  while (next < n_) {
    double now = MonoUs();
    double due = records_[next].due_us;
    if (due > now) {
      // steady_clock is CLOCK_MONOTONIC on Linux, so sleep to the due
      // instant on the same clock.
      timespec ts{};
      clock_gettime(CLOCK_MONOTONIC, &ts);
      int64_t ns = static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec +
                   static_cast<int64_t>((due - now) * 1e3);
      ts.tv_sec = static_cast<time_t>(ns / 1000000000);
      ts.tv_nsec = static_cast<long>(ns % 1000000000);
      clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
      continue;
    }
    size_t end = next;
    while (end < n_ && records_[end].due_us <= now) {
      records_[end].sent_us = now;
      ++end;
    }
    submit(next, end);
    next = end;
    size_t done = completed_.load(std::memory_order_acquire);
    outstanding_max_ = std::max(outstanding_max_, next - std::min(done, next));
  }
  const double deadline_us = MonoUs() + drain_timeout_s * 1e6;
  while (completed_.load(std::memory_order_acquire) < n_ && MonoUs() < deadline_us) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

LoadRun OpenLoop::Finish() {
  for (size_t i = 0; i < n_; ++i) {
    uint8_t expected = kPending;
    if (state_[i].compare_exchange_strong(expected, kAbandoned,
                                          std::memory_order_acq_rel)) {
      continue;
    }
    while (state_[i].load(std::memory_order_acquire) == kWriting) {
      std::this_thread::yield();
    }
  }
  LoadRun run;
  run.rate = rate_;
  run.outstanding_max = outstanding_max_;
  double first_due = n_ > 0 ? records_.front().due_us : 0.0;
  double last_done = first_due;
  for (const RequestRecord& r : records_) {
    if (r.answered) last_done = std::max(last_done, r.done_us);
  }
  run.wall_s = (last_done - first_due) / 1e6;
  run.records = std::move(records_);
  return run;
}

SocketTarget::SocketTarget(OpenLoop* loop, const std::vector<std::string>* lines)
    : loop_(loop), lines_(lines) {}

semdrift::Result<std::unique_ptr<SocketTarget>> SocketTarget::Connect(
    const std::string& path, int connections, OpenLoop* loop,
    const std::vector<std::string>* lines) {
  std::unique_ptr<SocketTarget> target(new SocketTarget(loop, lines));
  target->epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  target->wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (target->epoll_fd_ < 0 || target->wake_fd_ < 0) {
    return semdrift::Status::IOError(std::string("epoll/eventfd: ") + std::strerror(errno));
  }
  epoll_event wake{};
  wake.events = EPOLLIN;
  wake.data.u64 = ~0ull;
  epoll_ctl(target->epoll_fd_, EPOLL_CTL_ADD, target->wake_fd_, &wake);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return semdrift::Status::InvalidArgument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int i = 0; i < connections; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn->fd < 0 ||
        connect(conn->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      std::string error = std::strerror(errno);
      if (conn->fd >= 0) close(conn->fd);
      return semdrift::Status::IOError("connect " + path + ": " + error);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = static_cast<uint64_t>(i);
    epoll_ctl(target->epoll_fd_, EPOLL_CTL_ADD, conn->fd, &ev);
    target->conns_.push_back(std::move(conn));
  }
  target->reader_ = std::thread([t = target.get()] { t->ReadLoop(); });
  return target;
}

SocketTarget::~SocketTarget() { Close(); }

void SocketTarget::Submit(size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    Conn& conn = *conns_[i % conns_.size()];
    conn.write_buffer += (*lines_)[i];
    conn.write_buffer += '\n';
    std::lock_guard<std::mutex> lock(conn.mu);
    conn.inflight.push_back(i);
  }
  for (auto& conn_ptr : conns_) {
    Conn& conn = *conn_ptr;
    size_t offset = 0;
    while (offset < conn.write_buffer.size()) {
      ssize_t wrote = send(conn.fd, conn.write_buffer.data() + offset,
                           conn.write_buffer.size() - offset, MSG_NOSIGNAL);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        break;  // Dead connection: its requests stay unanswered.
      }
      offset += static_cast<size_t>(wrote);
    }
    conn.write_buffer.clear();
  }
}

void SocketTarget::ReadLoop() {
  std::vector<char> buffer(1 << 16);
  epoll_event events[8];
  while (!stop_.load(std::memory_order_acquire)) {
    int ready = epoll_wait(epoll_fd_, events, 8, 100);
    for (int k = 0; k < ready; ++k) {
      if (events[k].data.u64 == ~0ull) continue;
      Conn& conn = *conns_[events[k].data.u64];
      ssize_t got = recv(conn.fd, buffer.data(), buffer.size(), 0);
      if (got <= 0) {
        epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
        continue;
      }
      conn.read_buffer.append(buffer.data(), static_cast<size_t>(got));
      size_t start = 0;
      for (size_t nl = conn.read_buffer.find('\n', start); nl != std::string::npos;
           nl = conn.read_buffer.find('\n', start)) {
        size_t index = 0;
        {
          std::lock_guard<std::mutex> lock(conn.mu);
          if (conn.inflight_head >= conn.inflight.size()) break;
          index = conn.inflight[conn.inflight_head++];
        }
        loop_->Complete(index, conn.read_buffer.substr(start, nl - start));
        start = nl + 1;
      }
      conn.read_buffer.erase(0, start);
    }
  }
}

void SocketTarget::Close() {
  if (reader_.joinable()) {
    stop_.store(true, std::memory_order_release);
    uint64_t one = 1;
    ssize_t ignored = write(wake_fd_, &one, sizeof(one));
    (void)ignored;
    reader_.join();
  }
  for (auto& conn : conns_) {
    if (conn->fd >= 0) close(conn->fd);
    conn->fd = -1;
  }
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
}

}  // namespace perfbench
