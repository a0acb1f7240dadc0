// The benchmark's open-loop load generator for the live server.
//
// Unlike net::Replay, which reports only what the server answered, this
// client keeps the per-request timing a latency claim needs:
//
//   * request i is due at start + virtual_ts_s(i) * time_scale (its Poisson
//     timestamp, paced), and its latency runs from that due time to the
//     arrival of its response, so any stall, of the generator or of the
//     server, is charged to every request it delayed;
//   * each request's send lag is the time the generator encoded it minus
//     its due time: the generator's own lateness. When that lag's p99 is
//     above kMaxLagP99Ms the run did not offer the schedule it claims, and
//     the caller leaves it out of its latency figures. A server that backs up
//     the socket does not make the generator late: that wait is part of the
//     latency, and is kept apart as the socket-accept lag for context.
//
// One connection, one thread, a poll(2) loop that keeps reading while it
// writes (the server pauses reads on a connection whose responses back
// up, so a client that stops reading deadlocks the pair). time_scale = 0
// floods: every request is due at start.
#pragma once

#include <cstdint>
#include <vector>

#include "net/replay_client.h"

namespace perfbench {

// The largest generator send-lag p99 at which a pass still measures the
// server.
inline constexpr double kMaxLagP99Ms = 1.0;

struct OpenLoopOptions {
  std::uint16_t port = 0;
  double time_scale = 0.0;         // wall seconds per virtual second
  double final_beacon_ts_s = 0.0;  // clock beacon after the last request
};

struct OpenLoopReport {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t unanswered = 0;  // sent but never answered
  std::uint64_t duplicates = 0;  // responses for an already-answered id
  double wall_s = 0.0;           // start to last response
  // Per ok response: due-to-received wall latency, the server's virtual
  // latency and the serving instance's accuracy.
  std::vector<double> latency_ms;
  std::vector<double> virtual_ms;
  std::vector<double> accuracy;
  // Per sent request: encode time minus due time (the generator's lag).
  std::vector<double> lag_ms;
  // Per sent request: the time the socket accepted its last byte minus its
  // due time. Context only: it grows when the server stops reading.
  std::vector<double> accept_lag_ms;
};

// Replays `schedule` (sorted by virtual_ts_s, request ids 1..n in order)
// against the server on loopback and accounts every response.
OpenLoopReport RunOpenLoop(const std::vector<clover::net::ScheduledRequest>& schedule,
                           const OpenLoopOptions& options);

}  // namespace perfbench
