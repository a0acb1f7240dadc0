// Self-test of the benchmark's own arithmetic (bench_math.h): the span
// fold into exclusive time, percentile and sample-count reporting, and the
// due-time latency calculation. With --loopback it also drives the
// open-loop generator against a server that stops reading (about 1.5 s).
// Exits nonzero on any mismatch.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "net/frame.h"
#include "open_loop_client.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    ++failures;
  }
}

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

void TestFoldSpans() {
  using perfbench::SpanEvent;
  // Thread 1: root [0, 10] holding a [1, 4] holding b [2, 3], then a
  // second a [5, 6]. Thread 2: a [0, 8], overlapping in wall time but on
  // its own stack.
  const std::vector<SpanEvent> events = {
      {"root", 'B', 1, 0.0}, {"a", 'B', 1, 1.0}, {"a", 'B', 2, 0.0},
      {"b", 'B', 1, 2.0},    {"b", 'E', 1, 3.0}, {"a", 'E', 1, 4.0},
      {"a", 'B', 1, 5.0},    {"a", 'E', 1, 6.0}, {"a", 'E', 2, 8.0},
      {"root", 'E', 1, 10.0},
  };
  const auto fold = perfbench::FoldSpans(events);
  Expect(Near(fold.at("root").inclusive_s, 10.0), "root inclusive");
  Expect(Near(fold.at("root").exclusive_s, 6.0), "root exclusive = 10 - 3 - 1");
  Expect(Near(fold.at("a").inclusive_s, 12.0), "a inclusive over threads");
  Expect(Near(fold.at("a").exclusive_s, 11.0), "a exclusive excludes b");
  Expect(fold.at("a").count == 3, "a count");
  Expect(Near(fold.at("b").exclusive_s, 1.0), "b exclusive");

  // A window keeps only spans that begin and end inside it.
  const auto windowed = perfbench::FoldSpans(events, 0.5, 7.0);
  Expect(!windowed.count("root"), "root straddles the window");
  Expect(Near(windowed.at("a").inclusive_s, 4.0), "windowed a: [1,4] + [5,6]");
  Expect(Near(windowed.at("a").exclusive_s, 3.0), "windowed a exclusive");

  // An end without a matching begin is ignored.
  const auto orphan = perfbench::FoldSpans({{"x", 'E', 1, 1.0}});
  Expect(orphan.empty(), "orphan end ignored");
}

void TestPercentiles() {
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);  // 1..1000, shuffled
  const perfbench::Percentiles p = perfbench::Summarize(&samples);
  Expect(p.count == 1000, "count");
  Expect(p.p50 == 500.0, "p50 nearest rank");
  Expect(p.p99 == 990.0, "p99 nearest rank");
  Expect(p.p999 == 999.0, "p99.9 nearest rank");
  Expect(p.beyond_p99 == 10, "ten samples beyond p99");
  Expect(p.beyond_p999 == 1, "one sample beyond p99.9");

  std::vector<double> one = {7.0};
  const perfbench::Percentiles single = perfbench::Summarize(&one);
  Expect(single.p50 == 7.0 && single.p99 == 7.0, "single sample");
  std::vector<double> none;
  Expect(perfbench::Summarize(&none).count == 0, "empty sample");

  Expect(perfbench::Median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  Expect(perfbench::Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");
  Expect(perfbench::Median({}) == 0.0, "empty median");
}

void TestDueTimeLatency() {
  // Replay started at t = 100 s, at 1 ms of wall per virtual second.
  const double due = perfbench::DueTime(100.0, 2000.0, 1e-3);
  Expect(Near(due, 102.0), "due time");
  // Sent late at 102.003 and answered at 102.005: the latency counts the
  // 3 ms the generator was late, not only the 2 ms after sending.
  Expect(Near(perfbench::DueLatencyMs(due, 102.005), 5.0), "due latency");
  Expect(Near(perfbench::DueLatencyMs(due, 102.003), 3.0), "send lag");
  // Flood: every request is due at the start.
  Expect(Near(perfbench::DueTime(100.0, 2000.0, 0.0), 100.0), "flood due");
}

// A loopback server with a tiny receive buffer that reads nothing for
// `stall`, then answers `n` requests ok and closes. Listens before the
// constructor returns.
class StallingServer {
 public:
  StallingServer(std::size_t n, std::chrono::milliseconds stall)
      : listen_fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    const int small = 4096;  // inherited by the accepted socket
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, 1) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
      std::abort();
    port_ = ntohs(addr.sin_port);
    thread_ = std::jthread([this, n, stall] { Serve(n, stall); });
  }
  ~StallingServer() {
    thread_.join();
    ::close(listen_fd_);
  }

  std::uint16_t port() const { return port_; }

 private:
  void Serve(std::size_t n, std::chrono::milliseconds stall) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) std::abort();
    std::this_thread::sleep_for(stall);
    clover::net::FrameDecoder decoder;
    std::vector<std::uint8_t> in(64 * 1024), out;
    std::size_t answered = 0;
    while (answered < n) {
      const ssize_t got = ::read(fd, in.data(), in.size());
      if (got <= 0) break;
      decoder.Feed(in.data(), static_cast<std::size_t>(got));
      out.clear();
      while (auto frame = decoder.Next()) {
        if (frame->type != clover::net::FrameType::kRequest) continue;
        clover::net::AppendResponse(
            &out, {.request_id = frame->request.request_id, .accuracy = 1.0});
        ++answered;
      }
      for (std::size_t put = 0; put < out.size();) {
        const ssize_t wrote = ::write(fd, out.data() + put, out.size() - put);
        if (wrote <= 0) std::abort();
        put += static_cast<std::size_t>(wrote);
      }
    }
    ::close(fd);
  }

  int listen_fd_;
  std::uint16_t port_ = 0;
  std::jthread thread_;
};

// A server that stops reading backs the socket up, so the client's bytes
// wait in its send queue. That wait is the server's: it shows up in the
// due-time latency and in the socket-accept lag, not in the generator's
// lag, so it cannot mark the pass invalid.
//
// The generator's lag is held to its median here, not to the p99 rule: on
// a shared host one lost scheduler tick (4 ms) when the server wakes
// delays about 1% of this one-second schedule.
void TestStalledServerKeepsGeneratorOnTime() {
  // 400k requests (8.4 MB) due over 1 s, half the live workload's rate.
  // By the end of the stall 5.9 MB are due, more than the largest send
  // buffer Linux allows by default (4 MiB) can hold.
  constexpr std::size_t kRequests = 400000;
  constexpr double kSpanS = 1.0;
  const std::chrono::milliseconds stall(700);
  std::vector<clover::net::ScheduledRequest> schedule(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    schedule[i].request_id = i + 1;
    schedule[i].virtual_ts_s = kSpanS * static_cast<double>(i) / kRequests;
  }
  perfbench::OpenLoopReport report;
  {
    StallingServer server(kRequests, stall);
    report = perfbench::RunOpenLoop(
        schedule, {.port = server.port(), .time_scale = 1.0});
  }
  Expect(report.sent == kRequests && report.ok == kRequests &&
             report.unanswered == 0,
         "stalled server: every request answered");
  const perfbench::Percentiles lag = perfbench::Summarize(&report.lag_ms);
  const perfbench::Percentiles accept =
      perfbench::Summarize(&report.accept_lag_ms);
  const perfbench::Percentiles latency =
      perfbench::Summarize(&report.latency_ms);
  Expect(accept.p99 > 50.0, "stalled server: the sends did back up (accept "
                            "lag p99 " + std::to_string(accept.p99) + " ms)");
  Expect(lag.count == kRequests && lag.p50 <= perfbench::kMaxLagP99Ms &&
             lag.p99 < 0.1 * accept.p99,
         "stalled server: generator lag (p50 " + std::to_string(lag.p50) +
             " ms, p99 " + std::to_string(lag.p99) +
             " ms) stays clear of the stall");
  Expect(latency.p50 > 50.0, "stalled server: the stall is charged to latency "
                             "(p50 " + std::to_string(latency.p50) + " ms)");
}

}  // namespace

int main(int argc, char** argv) {
  TestFoldSpans();
  TestPercentiles();
  TestDueTimeLatency();
  if (argc > 1 && std::string(argv[1]) == "--loopback")
    TestStalledServerKeepsGeneratorOnTime();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
