// Tests for the live front-end's wire layer: the length-prefixed frame
// codec (round trips, arbitrary chunking, poisoning on malformed input)
// and the epoll reactor (accept/read/write over real loopback sockets,
// cross-thread Send, clean shutdown).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "models/zoo.h"
#include "net/epoll_server.h"
#include "net/frame.h"
#include "net/replay_client.h"
#include "serving/deployment.h"
#include "serving/live_server.h"

namespace clover::net {
namespace {

TEST(FrameCodec, RequestRoundTrip) {
  std::vector<std::uint8_t> wire;
  AppendRequest(&wire, {.request_id = 42, .virtual_ts_s = 1234.5625});
  EXPECT_EQ(wire.size(), kRequestFrameBytes);

  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  const std::optional<Frame> frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kRequest);
  EXPECT_EQ(frame->request.request_id, 42u);
  EXPECT_DOUBLE_EQ(frame->request.virtual_ts_s, 1234.5625);
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_EQ(decoder.pending_bytes(), 0u);
  EXPECT_FALSE(decoder.error());
}

TEST(FrameCodec, ResponseRoundTripAllStatuses) {
  for (const ResponseStatus status :
       {ResponseStatus::kOk, ResponseStatus::kShedRate,
        ResponseStatus::kShedQueue}) {
    std::vector<std::uint8_t> wire;
    AppendResponse(&wire, {.request_id = 7,
                           .status = status,
                           .latency_virtual_ms = 33.25,
                           .accuracy = 84.4});
    EXPECT_EQ(wire.size(), kResponseFrameBytes);
    FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    const std::optional<Frame> frame = decoder.Next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, FrameType::kResponse);
    EXPECT_EQ(frame->response.request_id, 7u);
    EXPECT_EQ(frame->response.status, status);
    EXPECT_DOUBLE_EQ(frame->response.latency_virtual_ms, 33.25);
    EXPECT_DOUBLE_EQ(frame->response.accuracy, 84.4);
  }
}

TEST(FrameCodec, BeaconRoundTrip) {
  std::vector<std::uint8_t> wire;
  AppendClockBeacon(&wire, {.virtual_ts_s = 7200.0});
  EXPECT_EQ(wire.size(), kClockBeaconFrameBytes);
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  const std::optional<Frame> frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kClockBeacon);
  EXPECT_DOUBLE_EQ(frame->beacon.virtual_ts_s, 7200.0);
}

TEST(FrameCodec, ByteAtATimeChunkingYieldsIdenticalFrames) {
  // The decoder must be insensitive to read() boundaries: feeding the
  // stream one byte at a time yields the same frames as one big feed.
  std::vector<std::uint8_t> wire;
  for (std::uint64_t i = 0; i < 10; ++i) {
    AppendRequest(&wire, {.request_id = i, .virtual_ts_s = 0.125 * double(i)});
    AppendResponse(&wire, {.request_id = i,
                           .status = ResponseStatus::kOk,
                           .latency_virtual_ms = double(i),
                           .accuracy = 80.0});
  }
  AppendClockBeacon(&wire, {.virtual_ts_s = 99.0});

  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (const std::uint8_t byte : wire) {
    decoder.Feed(&byte, 1);
    while (const std::optional<Frame> frame = decoder.Next())
      frames.push_back(*frame);
  }
  ASSERT_EQ(frames.size(), 21u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(frames[2 * i].type, FrameType::kRequest);
    EXPECT_EQ(frames[2 * i].request.request_id, i);
    EXPECT_EQ(frames[2 * i + 1].type, FrameType::kResponse);
    EXPECT_EQ(frames[2 * i + 1].response.request_id, i);
  }
  EXPECT_EQ(frames.back().type, FrameType::kClockBeacon);
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(FrameCodec, OversizedLengthPoisonsDecoder) {
  // A length prefix above kMaxPayloadBytes is a desynchronized stream, not
  // a frame to wait for.
  std::uint32_t huge = 1u << 20;
  std::uint8_t wire[kFrameHeaderBytes];
  std::memcpy(wire, &huge, sizeof(huge));
  FrameDecoder decoder;
  decoder.Feed(wire, sizeof(wire));
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_TRUE(decoder.error());
  // Poisoned: further valid input stays rejected.
  std::vector<std::uint8_t> valid;
  AppendClockBeacon(&valid, {.virtual_ts_s = 1.0});
  decoder.Feed(valid.data(), valid.size());
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_TRUE(decoder.error());
}

TEST(FrameCodec, UnknownTypePoisonsDecoder) {
  std::vector<std::uint8_t> wire;
  AppendClockBeacon(&wire, {.virtual_ts_s = 1.0});
  wire[kFrameHeaderBytes] = 0x7f;  // clobber the type tag
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_TRUE(decoder.error());
}

TEST(FrameCodec, LengthTypeMismatchPoisonsDecoder) {
  // A request tag with a beacon-sized payload cannot decode.
  std::vector<std::uint8_t> wire;
  AppendClockBeacon(&wire, {.virtual_ts_s = 1.0});
  wire[kFrameHeaderBytes] = static_cast<std::uint8_t>(FrameType::kRequest);
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_TRUE(decoder.error());
}

// --- Epoll reactor over real loopback sockets ---

int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void WriteAll(int fd, const std::vector<std::uint8_t>& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

TEST(EpollServer, EchoesResponsesAcrossThreads) {
  // Server answers every request with a response carrying the same id;
  // Send() runs from a different thread than Poll(), exercising the
  // eventfd wake path.
  EpollServer* server_ptr = nullptr;
  EpollServer server(
      [&](int conn_id, const Frame& frame) {
        ASSERT_EQ(frame.type, FrameType::kRequest);
        std::vector<std::uint8_t> out;
        AppendResponse(&out, {.request_id = frame.request.request_id,
                              .status = ResponseStatus::kOk,
                              .latency_virtual_ms = 1.0,
                              .accuracy = 80.0});
        std::thread([server_ptr, conn_id, out] {
          EXPECT_TRUE(server_ptr->Send(conn_id, out.data(), out.size()));
        }).join();
      },
      nullptr);
  server_ptr = &server;
  const std::uint16_t port = server.Listen();

  std::atomic<bool> stop{false};
  std::thread reactor([&] {
    while (!stop.load(std::memory_order_relaxed)) server.Poll(10);
  });

  const int fd = ConnectLoopback(port);
  constexpr std::uint64_t kRequests = 200;
  std::vector<std::uint8_t> out;
  for (std::uint64_t i = 0; i < kRequests; ++i)
    AppendRequest(&out, {.request_id = i, .virtual_ts_s = double(i)});
  WriteAll(fd, out);

  // Blocking reads until every response arrived.
  FrameDecoder decoder;
  std::uint64_t seen = 0;
  std::uint8_t buf[4096];
  std::vector<bool> got(kRequests, false);
  while (seen < kRequests) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    decoder.Feed(buf, static_cast<std::size_t>(n));
    while (const std::optional<Frame> frame = decoder.Next()) {
      ASSERT_EQ(frame->type, FrameType::kResponse);
      ASSERT_LT(frame->response.request_id, kRequests);
      EXPECT_FALSE(got[frame->response.request_id]);
      got[frame->response.request_id] = true;
      ++seen;
    }
  }
  ::close(fd);

  stop.store(true);
  server.Wake();
  reactor.join();
  server.Shutdown();
  EXPECT_EQ(server.open_connections(), 0u);
  EXPECT_EQ(server.accepted_total(), 1u);
}

TEST(EpollServer, DecodeErrorClosesOnlyTheBadConnection) {
  std::atomic<int> closed{0};
  EpollServer server([](int, const Frame&) {},
                     [&](int) { closed.fetch_add(1); });
  const std::uint16_t port = server.Listen();

  const int good = ConnectLoopback(port);
  const int bad = ConnectLoopback(port);
  // Drive the reactor from this thread; no traffic yet.
  while (server.open_connections() < 2) server.Poll(10);

  const std::vector<std::uint8_t> garbage(16, 0xee);
  WriteAll(bad, garbage);
  while (server.open_connections() > 1) server.Poll(10);
  EXPECT_EQ(closed.load(), 1);

  // The good connection still works end to end.
  std::vector<std::uint8_t> ok;
  AppendClockBeacon(&ok, {.virtual_ts_s = 5.0});
  WriteAll(good, ok);
  // One more poll round delivers the beacon without killing the conn.
  server.Poll(50);
  EXPECT_EQ(server.open_connections(), 1u);
  ::close(good);
  ::close(bad);
  server.Shutdown();
  EXPECT_EQ(closed.load(), 2);
}

TEST(EpollServer, ShutdownClosesEverythingAndIsIdempotent) {
  EpollServer server([](int, const Frame&) {}, nullptr);
  const std::uint16_t port = server.Listen();
  const int fd = ConnectLoopback(port);
  while (server.open_connections() < 1) server.Poll(10);
  server.Shutdown();
  EXPECT_EQ(server.open_connections(), 0u);
  server.Shutdown();  // idempotent
  ::close(fd);
}

TEST(Replay, DrainTimeoutRunsFromTheEndOfSending) {
  // A paced replay whose sending outlasts the drain timeout still waits for
  // the responses to its last requests: the timeout runs from the moment
  // every request and beacon was written, not from the start of the replay.
  serving::LiveServerOptions server_options;
  server_options.admission.bucket = {.rate_per_s = 1e12, .burst = 1e12};
  serving::LiveServer server(
      serving::MakeBase(models::Application::kClassification, 2),
      models::DefaultZoo(), server_options, /*hook=*/nullptr);
  std::vector<ScheduledRequest> schedule;
  for (std::uint64_t i = 1; i <= 200; ++i)
    schedule.push_back({.request_id = i, .virtual_ts_s = 0.005 * double(i)});
  ReplayOptions options;
  options.port = server.Start();
  options.time_scale = 0.5;       // 1 virtual second: 0.5 s of sending
  options.drain_timeout_s = 0.2;  // shorter than the sending
  const ReplayReport report = Replay(schedule, options);
  server.Stop();
  EXPECT_TRUE(report.all_acked);
  EXPECT_EQ(report.sent, 200u);
  EXPECT_EQ(report.ok, 200u);
}

}  // namespace
}  // namespace clover::net
