// Trace-replay load generator core.
//
// Replays a precomputed arrival schedule — (request_id, virtual_ts_s)
// pairs, e.g. the Poisson schedule the simulator would have drawn
// (core/live_service.h BuildReplaySchedule) — against a frame server over
// loopback, and accounts every response. Two pacing modes:
//
//   * time_scale > 0: request i is written no earlier than wall time
//     start + virtual_ts_s * time_scale. time_scale = 1 is real QPS;
//     0.001 replays an hour-long trace in 3.6 s. This is open-loop load:
//     a slow server does not slow the offered rate, it sheds or
//     backpressures — which is the regime the admission controller is for.
//   * time_scale = 0: as fast as the transport allows (throughput bench).
//
// The client is a single-threaded poll(2) loop that interleaves paced
// writes with response reads — it must keep reading while it writes, or
// the server's backpressure (epoll_server.h) would deadlock the pair once
// both directions' socket buffers fill. Requests round-robin across
// `connections` sockets; frames whose deadline has passed are batched
// into one write() (the syscall batching that makes >100k req/s on
// loopback possible on one core).
//
// After the last request the client sends a clock beacon carrying
// `final_beacon_ts_s` on every connection, so the server's virtual clock
// reaches the end of the run even though no request arrives there, then
// keeps polling until every request is answered (all_acked) or the
// drain timeout expires.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/quantile.h"

namespace clover::net {

struct ScheduledRequest {
  std::uint64_t request_id = 0;
  double virtual_ts_s = 0.0;
};

struct ReplayOptions {
  std::uint16_t port = 0;     // server's loopback port (required)
  int connections = 1;        // parallel sockets, round-robin
  double time_scale = 0.0;    // wall seconds per virtual second; 0 = flood
  double final_beacon_ts_s = 0.0;  // sent after the last request if > 0
  double drain_timeout_s = 30.0;   // wall-clock wait for outstanding acks
};

struct ReplayReport {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed_rate = 0;
  std::uint64_t shed_queue = 0;
  double wall_seconds = 0.0;
  double achieved_qps = 0.0;  // sent / wall_seconds
  bool all_acked = false;     // every sent request got a response
  // Distribution of ResponseFrame::latency_virtual_ms over kOk responses.
  LogHistogramQuantile ok_latency_virtual_ms;

  std::uint64_t shed() const { return shed_rate + shed_queue; }
};

// Runs the replay to completion on the calling thread. `schedule` must be
// sorted by virtual_ts_s. Aborts (CLOVER_CHECK) on connect failure or a
// protocol error — in this repo the peer is always our own server, so a
// broken conversation is a bug, not an operational condition.
ReplayReport Replay(const std::vector<ScheduledRequest>& schedule,
                    const ReplayOptions& options);

}  // namespace clover::net
