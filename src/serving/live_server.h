// The live serving front-end: epoll ingest, admission control, deadline-
// or-size batching, sequenced virtual execution.
//
// Thread architecture (one arrow = one queue handoff):
//
//   clients ──TCP──▶ ingest thread ──ticketed batches──▶ worker pool
//                    (net/epoll_server)                  (N threads)
//                         │                                   │
//                    admission verdicts                 VirtualExecutor
//                    (net/admission)                    + control hook,
//                         │                             in ticket order
//                    shed responses ◀──────────────── ok responses
//
// Ingest: the epoll reactor decodes request frames and runs admission
// inline. The server's virtual clock is the high-water mark of request
// timestamps (net/frame.h); the token bucket refills on that clock, so
// rate shedding is a deterministic function of the replayed schedule. The
// queue-depth signal is the number of admitted-but-unanswered requests —
// deliberately wall-coupled: it protects the real process from real
// backlog, so it is load protection, not part of the replayable decision
// sequence (docs/TESTING.md discusses the split; the differential test
// disables it).
//
// Batching: admitted requests accumulate into the current batch, flushed
// when it reaches `batch_max_requests` or its oldest request has waited
// `batch_flush_us` of wall time — the deadline-or-size rule: full batches
// amortize handoff cost at high load, the deadline bounds added latency
// at low load. Each flushed batch takes a monotone ticket.
//
// Workers: any thread may pick up any batch, but the virtual-time section
// — the control hook (LiveControlHook) and VirtualExecutor calls — runs
// strictly in ticket order, so the executor sees one canonical request
// sequence no matter how many workers race. That is the whole
// determinism argument: 1 worker and 8 workers produce bit-identical
// control decisions and virtual latencies (tests/live_differential_test).
// Response encoding and socket writes happen outside the ticket section
// and do run in parallel; clients match responses by request_id.
//
// Backpressure: net/epoll_server.h pauses reads on connections whose
// response queue exceeds the cap, which stalls the client's writes —
// admitted work is never dropped, the offered stream is slowed instead.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/latency_store.h"
#include "net/admission.h"
#include "net/epoll_server.h"
#include "serving/virtual_executor.h"

namespace clover::serving {

// Applies control boundaries for the live path; implemented by
// core::LiveControlPlane. Called on worker threads, but always inside the
// ticket-ordered section, so calls never overlap and may touch `executor`.
// An implementation may block there (the control plane does while its
// twin thread has not fired the boundary yet); every batch behind the
// ticket waits with it.
class LiveControlHook {
 public:
  virtual ~LiveControlHook() = default;
  // Observes that virtual time reached `virtual_ts_s`; applies any control
  // boundaries strictly below it to `executor` before the request at that
  // timestamp executes (matching the simulator, where an arrival at
  // exactly the boundary is served before the controller steps).
  virtual void OnVirtualAdvance(double virtual_ts_s,
                                VirtualExecutor* executor) = 0;
};

struct LiveServerOptions {
  std::size_t worker_threads = 1;
  std::size_t batch_max_requests = 256;
  double batch_flush_us = 200.0;
  net::AdmissionOptions admission;
  std::size_t max_out_buffer_bytes = 1 << 20;
};

struct LiveStats {
  net::AdmissionCounters admission;
  std::uint64_t completed = 0;        // ok responses produced
  double p50_virtual_ms = 0.0;
  double p99_virtual_ms = 0.0;
  double mean_virtual_ms = 0.0;
  double mean_accuracy = 0.0;
  std::uint64_t batches = 0;
  double mean_batch_fill = 0.0;       // requests per flushed batch
  std::size_t open_connections = 0;
};

class LiveServer {
 public:
  // `hook` may be null (no control plane: static deployment throughout).
  LiveServer(const Deployment& initial, const models::ModelZoo& zoo,
             const LiveServerOptions& options, LiveControlHook* hook);
  ~LiveServer();

  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  // Binds the loopback listener, spawns the ingest thread and workers.
  // Returns the port clients connect to.
  std::uint16_t Start();

  // Drains queued batches, answers everything in flight, joins all
  // threads and closes all sockets. Idempotent.
  void Stop();

  // Const fold-on-read over the sharded store plus admission/batching
  // counters; safe to call mid-run (counts may lag in-flight work).
  LiveStats SnapshotStats() const;

  // The virtual executor. While the server runs, only the ticket-holding
  // worker may touch it; callers use this before Start() or after Stop()
  // (the control plane's Finish applies end-of-run boundaries through it).
  VirtualExecutor* mutable_executor() { return &executor_; }

 private:
  struct BatchItem {
    int conn_id = 0;
    std::uint64_t request_id = 0;
    double virtual_ts_s = 0.0;
  };
  struct Batch {
    std::uint64_t ticket = 0;
    // A beacon batch has no items and only advances virtual time.
    double beacon_ts_s = 0.0;
    std::vector<BatchItem> items;
  };

  void IngestLoop();
  void WorkerLoop(std::size_t worker_index);
  void OnFrame(int conn_id, const net::Frame& frame);
  void FlushCurrentBatchLocked();  // ingest thread, holding batch_mu_

  LiveServerOptions options_;
  LiveControlHook* hook_;

  std::unique_ptr<net::EpollServer> epoll_;
  VirtualExecutor executor_;
  ShardedLatencyStore latency_store_;

  // Ingest-thread-only state.
  net::AdmissionController admission_;
  double virtual_clock_s_ = 0.0;     // high-water mark of request ts
  Batch current_;
  double current_batch_started_wall_ = 0.0;  // steady-clock seconds
  // Shed responses produced inside the epoll callback, flushed to their
  // sockets right after each Poll round: (conn_id, encoded frames).
  std::vector<std::pair<int, std::vector<std::uint8_t>>> shed_out_;

  // Batch pipeline.
  std::mutex batch_mu_;
  std::condition_variable batch_cv_;    // workers wait for batches
  std::condition_variable ticket_cv_;   // workers wait for their turn
  std::deque<Batch> batches_;
  std::uint64_t next_ticket_ = 0;       // assigned at flush
  std::uint64_t next_to_execute_ = 0;   // ticket allowed into the executor
  bool stopping_ = false;

  // Cross-thread counters.
  std::atomic<std::uint64_t> inflight_{0};  // admitted, not yet answered
  std::atomic<std::uint64_t> batches_flushed_{0};
  std::atomic<std::uint64_t> batched_requests_{0};

  // Admission counters are written by the ingest thread; SnapshotStats
  // reads them under this mutex for a consistent conservation view.
  mutable std::mutex stats_mu_;

  std::thread ingest_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  std::atomic<bool> stop_flag_{false};
};

}  // namespace clover::serving
