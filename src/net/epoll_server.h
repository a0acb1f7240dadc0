// Nonblocking loopback frame server on epoll.
//
// Single-threaded reactor: one thread (the live server's ingest thread,
// serving/live_server.cc) calls Poll() in a loop; accepts, reads, frame
// decoding and the frame callback all run on that thread, so the callback
// needs no internal locking for ingest-side state. Writes are the one
// cross-thread path — worker threads complete requests and call Send(),
// which queues bytes under a mutex and wakes the reactor through an
// eventfd; the reactor owns the actual write() calls.
//
// Backpressure is the standard TCP two-step: when a connection's queued
// output exceeds 1 MiB (a slow reader), the reactor stops
// reading from that connection (EPOLLIN off). Its send window fills, the
// client's write() starts returning EAGAIN, and the client must drain
// responses before it can offer more load. Reading resumes once the queue
// drains below half the cap. This bounds server-side memory per connection
// without dropping admitted work.
//
// Error containment: a decode error (net/frame.h), read error, or EOF
// closes the connection; the server itself keeps running. All fds are
// closed by Shutdown()/destructor — the soak test counts /proc/self/fd to
// hold us to that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/frame.h"

namespace clover::net {

class EpollServer {
 public:
  // on_frame runs on the Poll() thread for every decoded frame.
  // on_close runs on the Poll() thread when a connection goes away
  // (EOF, error, or Shutdown); may be null.
  using FrameHandler = std::function<void(int conn_id, const Frame& frame)>;
  using CloseHandler = std::function<void(int conn_id)>;

  EpollServer(FrameHandler on_frame, CloseHandler on_close);
  ~EpollServer();

  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  // Binds 127.0.0.1 on an ephemeral port, starts listening, and returns
  // the bound port. Call once, before Poll().
  std::uint16_t Listen();

  // Runs one reactor round: waits up to `timeout_ms` (-1 = block) for
  // events, then services accepts, reads (dispatching on_frame per frame),
  // and queued writes. Returns the number of epoll events handled, 0 on
  // timeout. Wakes early when another thread calls Send() or Wake().
  int Poll(int timeout_ms);

  // Thread-safe: queues `size` bytes on `conn_id` and wakes the reactor.
  // Returns false if the connection no longer exists.
  bool Send(int conn_id, const std::uint8_t* data, std::size_t size);

  // Thread-safe: wakes a blocked Poll() without queueing data (used to
  // make the reactor notice a stop flag).
  void Wake();

  // Closes the listener and every connection (on_close fires for each).
  // Idempotent; also run by the destructor.
  void Shutdown();

  std::size_t open_connections() const;
  std::uint64_t accepted_total() const { return accepted_total_; }

 private:
  struct Connection {
    FrameDecoder decoder;
    std::vector<std::uint8_t> out;  // guarded by mu_
    bool reads_paused = false;
    bool want_write = false;  // EPOLLOUT currently armed
  };

  void HandleAccept();
  void HandleReadable(int fd);
  // Attempts to drain conn->out; arms/disarms EPOLLOUT and pauses/resumes
  // reads around the backpressure threshold. Returns false if the
  // connection died and was closed.
  bool FlushWrites(int fd, Connection* conn);
  void UpdateInterest(int fd, Connection* conn);
  void CloseConnection(int fd);

  FrameHandler on_frame_;
  CloseHandler on_close_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  std::uint64_t accepted_total_ = 0;

  // Guards conns_'s structure plus each Connection's `out` queue. The
  // reactor thread is the only mutator of the map itself; Send() only
  // appends to an existing connection's queue.
  mutable std::mutex mu_;
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
};

}  // namespace clover::net
