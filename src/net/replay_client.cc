#include "net/replay_client.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>

#include "common/check.h"
#include "net/frame.h"

namespace clover::net {
namespace {

constexpr std::size_t kReadChunkBytes = 64 * 1024;
// Max request frames encoded per pacing round (bounds single-write burst
// size in flood mode).
constexpr std::size_t kMaxBurstFrames = 4096;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  CLOVER_CHECK_MSG(fd >= 0, "replay client: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  CLOVER_CHECK_MSG(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr)) == 0,
                   "replay client: connect(127.0.0.1) failed");
  const int flags = ::fcntl(fd, F_GETFL, 0);
  CLOVER_CHECK_MSG(
      flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
      "replay client: O_NONBLOCK failed");
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

struct ClientConn {
  int fd = -1;
  std::vector<std::uint8_t> out;  // encoded but not yet written
  FrameDecoder decoder;
};

// Writes as much of conn.out as the socket accepts right now.
void TryWrite(ClientConn& conn) {
  while (!conn.out.empty()) {
    const ssize_t put = ::write(conn.fd, conn.out.data(), conn.out.size());
    if (put > 0) {
      conn.out.erase(conn.out.begin(), conn.out.begin() + put);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CLOVER_CHECK_MSG(false, "replay client: write() failed");
  }
}

}  // namespace

ReplayReport Replay(const std::vector<ScheduledRequest>& schedule,
                    const ReplayOptions& options) {
  CLOVER_CHECK_MSG(options.port != 0, "replay client: no server port");
  CLOVER_CHECK_MSG(options.connections >= 1,
                   "replay client: need at least one connection");

  std::vector<ClientConn> conns(
      static_cast<std::size_t>(options.connections));
  for (auto& conn : conns) conn.fd = ConnectLoopback(options.port);

  ReplayReport report;
  std::uint64_t acked = 0;
  std::size_t next = 0;  // index of the next unsent schedule entry
  bool beacons_sent = false;
  const double start = NowSeconds();
  // When every request and beacon was written: the drain timeout runs
  // from here.
  std::optional<double> sending_done;

  std::vector<pollfd> pfds(conns.size());
  std::uint8_t chunk[kReadChunkBytes];

  while (true) {
    const double now = NowSeconds();

    // Encode every request whose pacing deadline has passed, round-robin
    // across connections, bounded per round so reads stay interleaved.
    std::size_t burst = 0;
    while (next < schedule.size() && burst < kMaxBurstFrames) {
      const auto& req = schedule[next];
      if (options.time_scale > 0.0 &&
          req.virtual_ts_s * options.time_scale > now - start) {
        break;
      }
      auto& conn = conns[next % conns.size()];
      AppendRequest(&conn.out,
                    {.request_id = req.request_id,
                     .virtual_ts_s = req.virtual_ts_s});
      ++report.sent;
      ++next;
      ++burst;
    }
    if (next == schedule.size() && !beacons_sent) {
      if (options.final_beacon_ts_s > 0.0) {
        for (auto& conn : conns) {
          AppendClockBeacon(&conn.out,
                            {.virtual_ts_s = options.final_beacon_ts_s});
        }
      }
      beacons_sent = true;
    }

    for (auto& conn : conns) TryWrite(conn);

    const bool done_sending =
        beacons_sent &&
        std::all_of(conns.begin(), conns.end(),
                    [](const ClientConn& c) { return c.out.empty(); });
    if (done_sending && acked == report.sent) {
      report.all_acked = true;
      break;
    }
    if (done_sending && !sending_done.has_value()) sending_done = now;
    if (done_sending && now - *sending_done > options.drain_timeout_s &&
        options.drain_timeout_s > 0.0) {
      break;  // server lost responses; all_acked stays false
    }

    // Wait for readability (always) / writability (when bytes pend), or
    // until the next pacing deadline.
    int timeout_ms = 50;
    if (next < schedule.size() && options.time_scale > 0.0) {
      const double wait_s =
          schedule[next].virtual_ts_s * options.time_scale - (now - start);
      if (wait_s <= 0.0) {
        timeout_ms = 0;
      } else {
        timeout_ms = wait_s * 1000.0 < 50.0
                         ? static_cast<int>(wait_s * 1000.0) + 1
                         : 50;
      }
    } else if (next < schedule.size()) {
      timeout_ms = 0;  // flood mode: keep pushing
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      pfds[i].fd = conns[i].fd;
      pfds[i].events =
          static_cast<short>(POLLIN | (conns[i].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    int n;
    do {
      n = ::poll(pfds.data(), pfds.size(), timeout_ms);
    } while (n < 0 && errno == EINTR);

    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (!(pfds[i].revents & POLLIN)) continue;
      auto& conn = conns[i];
      while (true) {
        const ssize_t got = ::read(conn.fd, chunk, sizeof(chunk));
        if (got > 0) {
          conn.decoder.Feed(chunk, static_cast<std::size_t>(got));
          if (got < static_cast<ssize_t>(sizeof(chunk))) break;
          continue;
        }
        if (got == 0) {
          CLOVER_CHECK_MSG(false,
                           "replay client: server closed mid-conversation");
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        CLOVER_CHECK_MSG(false, "replay client: read() failed");
      }
      while (auto frame = conn.decoder.Next()) {
        CLOVER_CHECK_MSG(frame->type == FrameType::kResponse,
                         "replay client: unexpected frame type");
        ++acked;
        switch (frame->response.status) {
          case ResponseStatus::kOk:
            ++report.ok;
            report.ok_latency_virtual_ms.Add(
                frame->response.latency_virtual_ms);
            break;
          case ResponseStatus::kShedRate:
            ++report.shed_rate;
            break;
          case ResponseStatus::kShedQueue:
            ++report.shed_queue;
            break;
        }
      }
      CLOVER_CHECK_MSG(!conn.decoder.error(),
                       "replay client: response stream decode error");
    }
  }

  report.wall_seconds = NowSeconds() - start;
  report.achieved_qps =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.sent) / report.wall_seconds
          : 0.0;
  for (auto& conn : conns) ::close(conn.fd);
  return report;
}

}  // namespace clover::net
