#include "net/epoll_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/check.h"

namespace clover::net {
namespace {

constexpr std::size_t kReadChunkBytes = 64 * 1024;
// Queued-output cap per connection before reads are paused (backpressure).
constexpr std::size_t kMaxOutBufferBytes = 1 << 20;
// Max epoll events drained per Poll() call.
constexpr int kMaxEvents = 64;

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

EpollServer::EpollServer(FrameHandler on_frame, CloseHandler on_close)
    : on_frame_(std::move(on_frame)), on_close_(std::move(on_close)) {
  CLOVER_CHECK_MSG(on_frame_ != nullptr, "EpollServer needs a frame handler");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  CLOVER_CHECK_MSG(epoll_fd_ >= 0, "epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  CLOVER_CHECK_MSG(wake_fd_ >= 0, "eventfd failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  CLOVER_CHECK_MSG(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0,
                   "epoll_ctl(wake) failed");
}

EpollServer::~EpollServer() {
  Shutdown();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  wake_fd_ = epoll_fd_ = -1;
}

std::uint16_t EpollServer::Listen() {
  CLOVER_CHECK_MSG(listen_fd_ < 0, "Listen() called twice");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  CLOVER_CHECK_MSG(listen_fd_ >= 0, "socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral: tests and benches run concurrently
  CLOVER_CHECK_MSG(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0,
                   "bind(127.0.0.1:0) failed");
  CLOVER_CHECK_MSG(::listen(listen_fd_, 128) == 0, "listen() failed");

  socklen_t len = sizeof(addr);
  CLOVER_CHECK_MSG(::getsockname(listen_fd_,
                                 reinterpret_cast<sockaddr*>(&addr),
                                 &len) == 0,
                   "getsockname() failed");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  CLOVER_CHECK_MSG(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0,
                   "epoll_ctl(listen) failed");
  return ntohs(addr.sin_port);
}

int EpollServer::Poll(int timeout_ms) {
  if (epoll_fd_ < 0) return 0;
  epoll_event events[kMaxEvents];
  int n;
  do {
    n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return 0;

  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wake_fd_) {
      std::uint64_t drained;
      while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
      }
      continue;
    }
    if (fd == listen_fd_) {
      HandleAccept();
      continue;
    }
    if (events[i].events & (EPOLLHUP | EPOLLERR)) {
      CloseConnection(fd);
      continue;
    }
    if (events[i].events & EPOLLIN) HandleReadable(fd);
    if (events[i].events & EPOLLOUT) {
      std::unique_lock<std::mutex> lock(mu_);
      auto it = conns_.find(fd);
      if (it != conns_.end()) {
        Connection* conn = it->second.get();
        lock.unlock();
        FlushWrites(fd, conn);
      }
    }
  }

  // Send() may have queued output on connections that produced no epoll
  // event this round; flush everything with pending bytes so responses
  // don't sit until the next inbound packet. Connection count is small
  // (loadgen uses at most a handful), so the sweep is cheap.
  std::vector<int> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [fd, conn] : conns_) {
      if (!conn->out.empty() && !conn->want_write) pending.push_back(fd);
    }
  }
  for (int fd : pending) {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Connection* conn = it->second.get();
    lock.unlock();
    FlushWrites(fd, conn);
  }
  return n;
}

void EpollServer::HandleAccept() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; keep serving
    }
    SetNoDelay(fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      conns_.emplace(fd, std::make_unique<Connection>());
    }
    ++accepted_total_;
  }
}

void EpollServer::HandleReadable(int fd) {
  Connection* conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    conn = it->second.get();
  }
  std::uint8_t chunk[kReadChunkBytes];
  while (true) {
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got > 0) {
      conn->decoder.Feed(chunk, static_cast<std::size_t>(got));
      while (auto frame = conn->decoder.Next()) on_frame_(fd, *frame);
      if (conn->decoder.error()) {
        CloseConnection(fd);
        return;
      }
      if (got < static_cast<ssize_t>(sizeof(chunk))) return;
      continue;
    }
    if (got == 0) {  // peer closed
      CloseConnection(fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConnection(fd);
    return;
  }
}

bool EpollServer::FlushWrites(int fd, Connection* conn) {
  std::unique_lock<std::mutex> lock(mu_);
  while (!conn->out.empty()) {
    const ssize_t put = ::write(fd, conn->out.data(), conn->out.size());
    if (put > 0) {
      conn->out.erase(conn->out.begin(), conn->out.begin() + put);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    // Peer reset: drop the connection. Only the reactor thread mutates the
    // map, so erasing under the lock is safe; the close callback runs
    // unlocked (it may call Send on other connections).
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns_.erase(fd);
    lock.unlock();
    if (on_close_) on_close_(fd);
    return false;
  }
  UpdateInterest(fd, conn);
  return true;
}

void EpollServer::UpdateInterest(int fd, Connection* conn) {
  // Caller holds mu_. Pause reads above the cap, resume below half of it
  // (hysteresis so a connection hovering at the threshold doesn't flap).
  const bool want_write = !conn->out.empty();
  bool reads_paused = conn->reads_paused;
  if (!reads_paused && conn->out.size() > kMaxOutBufferBytes) {
    reads_paused = true;
  } else if (reads_paused && conn->out.size() < kMaxOutBufferBytes / 2) {
    reads_paused = false;
  }
  if (want_write == conn->want_write && reads_paused == conn->reads_paused) {
    return;
  }
  conn->want_write = want_write;
  conn->reads_paused = reads_paused;
  epoll_event ev{};
  ev.events = (reads_paused ? 0u : EPOLLIN) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

bool EpollServer::Send(int conn_id, const std::uint8_t* data,
                       std::size_t size) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return false;
    auto& out = it->second->out;
    out.insert(out.end(), data, data + size);
  }
  Wake();
  return true;
}

void EpollServer::Wake() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EpollServer::CloseConnection(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns_.erase(fd);
  }
  if (on_close_) on_close_(fd);
}

void EpollServer::Shutdown() {
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fds.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  }
  for (int fd : fds) CloseConnection(fd);
}

std::size_t EpollServer::open_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conns_.size();
}

}  // namespace clover::net
