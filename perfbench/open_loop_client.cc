#include "open_loop_client.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <string>

#include "bench_math.h"
#include "net/frame.h"

namespace perfbench {
namespace {

// Wall wait for the last responses once everything is sent.
constexpr double kDrainTimeoutS = 30.0;
// Requests encoded per loop turn before the client writes and reads.
constexpr std::size_t kMaxBurstFrames = 4096;
// Bytes written or read per loop turn. Draining a backlog (or a burst of
// responses) in one go would hold up requests that fall due meanwhile.
constexpr std::size_t kIoChunkBytes = 64 * 1024;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error("open-loop client: " + what + " (errno " +
                           std::to_string(errno) + ")");
}

class Socket {
 public:
  explicit Socket(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
    if (fd_ < 0) Fail("socket()");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      Fail("connect()");
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) != 0)
      Fail("O_NONBLOCK");
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }

 private:
  int fd_;
};

}  // namespace

OpenLoopReport RunOpenLoop(
    const std::vector<clover::net::ScheduledRequest>& schedule,
    const OpenLoopOptions& options) {
  namespace net = clover::net;
  const std::size_t n = schedule.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (schedule[i].request_id != i + 1)
      throw std::invalid_argument("open-loop client: ids must be 1..n");
  }
  Socket socket(options.port);

  OpenLoopReport report;
  report.latency_ms.reserve(n);
  report.virtual_ms.reserve(n);
  report.accuracy.reserve(n);
  report.lag_ms.reserve(n);
  report.accept_lag_ms.assign(n, 0.0);
  std::vector<std::uint8_t> answered(n, 0);
  std::uint64_t answered_count = 0;

  // Encoded frames; [out_head, size) unsent. Reserved for the whole
  // schedule so a server that stops reading never makes the generator
  // pause to grow the buffer (untouched pages cost no memory).
  std::vector<std::uint8_t> out;
  out.reserve(n * net::kRequestFrameBytes + net::kClockBeaconFrameBytes);
  std::size_t out_head = 0;
  std::size_t next = 0;           // next request to encode
  std::size_t accepted = 0;       // requests whose bytes the socket took
  std::uint64_t request_bytes_written = 0;
  bool beacon_queued = false;
  double done_sending_s = 0.0;
  net::FrameDecoder decoder;
  std::vector<std::uint8_t> chunk(kIoChunkBytes);

  const double start = NowSeconds();
  auto due = [&](std::size_t i) {
    return DueTime(start, schedule[i].virtual_ts_s, options.time_scale);
  };

  for (;;) {
    double now = NowSeconds();
    for (std::size_t burst = 0;
         next < n && burst < kMaxBurstFrames && due(next) <= now;
         ++burst, ++next) {
      net::AppendRequest(&out, {.request_id = schedule[next].request_id,
                                .virtual_ts_s = schedule[next].virtual_ts_s});
      report.lag_ms.push_back(DueLatencyMs(due(next), now));
      ++report.sent;
    }
    if (next == n && !beacon_queued) {
      if (options.final_beacon_ts_s > 0.0)
        net::AppendClockBeacon(&out,
                               {.virtual_ts_s = options.final_beacon_ts_s});
      beacon_queued = true;
    }

    if (out_head < out.size()) {
      const ssize_t put =
          ::send(socket.fd(), out.data() + out_head,
                 std::min(out.size() - out_head, kIoChunkBytes), MSG_NOSIGNAL);
      if (put > 0) {
        out_head += static_cast<std::size_t>(put);
        request_bytes_written += static_cast<std::uint64_t>(put);
        const double t = NowSeconds();
        // Requests occupy the first n * kRequestFrameBytes bytes of the
        // stream; a request is sent once all of its bytes are accepted.
        while (accepted < next &&
               (accepted + 1) * net::kRequestFrameBytes <=
                   request_bytes_written) {
          report.accept_lag_ms[accepted] = DueLatencyMs(due(accepted), t);
          ++accepted;
        }
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        Fail("send()");
      }
    }
    if (out_head == out.size()) {
      out.clear();
      out_head = 0;
    }

    const bool done_sending = beacon_queued && out.empty();
    if (done_sending && done_sending_s == 0.0) done_sending_s = now;
    if (done_sending && answered_count == report.sent) break;
    if (done_sending && now - done_sending_s > kDrainTimeoutS) break;

    // Spin while the next request is due within a millisecond: poll's
    // timeout resolution is 1 ms, and sleeping through a due time would
    // make the generator, not the server, late.
    int timeout_ms = 50;
    if (next < n) {
      const double wait_ms = (due(next) - now) * 1e3;
      timeout_ms = wait_ms < 1.0 ? 0 : static_cast<int>(std::min(wait_ms, 50.0));
    }
    pollfd pfd{socket.fd(),
               static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
    int ready;
    do {
      ready = ::poll(&pfd, 1, timeout_ms);
    } while (ready < 0 && errno == EINTR);
    if (ready < 0) Fail("poll()");
    if (!(pfd.revents & (POLLIN | POLLHUP | POLLERR))) continue;

    for (;;) {
      const ssize_t got = ::read(socket.fd(), chunk.data(), chunk.size());
      if (got > 0) {
        const double received = NowSeconds();
        decoder.Feed(chunk.data(), static_cast<std::size_t>(got));
        while (auto frame = decoder.Next()) {
          if (frame->type != net::FrameType::kResponse)
            throw std::runtime_error("open-loop client: unexpected frame");
          const net::ResponseFrame& r = frame->response;
          const std::uint64_t id = r.request_id;
          if (id == 0 || id > n || answered[id - 1]) {
            ++report.duplicates;
            continue;
          }
          answered[id - 1] = 1;
          ++answered_count;
          report.wall_s = received - start;
          if (r.status == net::ResponseStatus::kOk) {
            ++report.ok;
            report.latency_ms.push_back(DueLatencyMs(due(id - 1), received));
            report.virtual_ms.push_back(r.latency_virtual_ms);
            report.accuracy.push_back(r.accuracy);
          } else {
            ++report.shed;
          }
        }
        if (decoder.error())
          throw std::runtime_error("open-loop client: response decode error");
        break;
      }
      if (got == 0) throw std::runtime_error("open-loop client: server closed");
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      Fail("read()");
    }
  }
  report.accept_lag_ms.resize(accepted);
  report.unanswered = report.sent - answered_count;
  return report;
}

}  // namespace perfbench
