#include "serving/live_server.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace clover::serving {
namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

LiveServer::LiveServer(const Deployment& initial, const models::ModelZoo& zoo,
                       const LiveServerOptions& options, LiveControlHook* hook)
    : options_(options),
      hook_(hook),
      executor_(initial, zoo),
      latency_store_(options.worker_threads == 0 ? 1
                                                 : options.worker_threads),
      admission_(options.admission) {
  CLOVER_CHECK_MSG(options_.worker_threads >= 1,
                   "live server needs >= 1 worker");
  CLOVER_CHECK_MSG(options_.batch_max_requests >= 1,
                   "batch size must be >= 1");
}

LiveServer::~LiveServer() { Stop(); }

std::uint16_t LiveServer::Start() {
  CLOVER_CHECK_MSG(!started_, "live server already started");
  started_ = true;
  epoll_ = std::make_unique<net::EpollServer>(
      [this](int conn_id, const net::Frame& frame) { OnFrame(conn_id, frame); },
      nullptr);
  const std::uint16_t port = epoll_->Listen();
  ingest_ = std::thread(&LiveServer::IngestLoop, this);
  workers_.reserve(options_.worker_threads);
  for (std::size_t i = 0; i < options_.worker_threads; ++i)
    workers_.emplace_back(&LiveServer::WorkerLoop, this, i);
  return port;
}

void LiveServer::OnFrame(int conn_id, const net::Frame& frame) {
  // Runs on the ingest thread, inside epoll_->Poll().
  if (frame.type == net::FrameType::kClockBeacon) {
    if (frame.beacon.virtual_ts_s > virtual_clock_s_)
      virtual_clock_s_ = frame.beacon.virtual_ts_s;
    std::lock_guard<std::mutex> lock(batch_mu_);
    FlushCurrentBatchLocked();
    Batch beacon;
    beacon.ticket = next_ticket_++;
    beacon.beacon_ts_s = virtual_clock_s_;
    batches_.push_back(std::move(beacon));
    batch_cv_.notify_all();
    return;
  }
  if (frame.type != net::FrameType::kRequest) return;

  const net::RequestFrame& request = frame.request;
  if (request.virtual_ts_s > virtual_clock_s_)
    virtual_clock_s_ = request.virtual_ts_s;
  net::AdmissionVerdict verdict;
  {
    // stats_mu_ only orders the counters against SnapshotStats; the
    // ingest thread is the sole writer.
    std::lock_guard<std::mutex> lock(stats_mu_);
    verdict = admission_.Offer(
        virtual_clock_s_,
        static_cast<std::size_t>(inflight_.load(std::memory_order_relaxed)));
  }
  if (verdict != net::AdmissionVerdict::kAdmit) {
    net::ResponseFrame response;
    response.request_id = request.request_id;
    response.status = verdict == net::AdmissionVerdict::kShedRate
                          ? net::ResponseStatus::kShedRate
                          : net::ResponseStatus::kShedQueue;
    for (auto& [conn, buffer] : shed_out_) {
      if (conn == conn_id) {
        net::AppendResponse(&buffer, response);
        return;
      }
    }
    shed_out_.emplace_back(conn_id, std::vector<std::uint8_t>());
    net::AppendResponse(&shed_out_.back().second, response);
    return;
  }

  inflight_.fetch_add(1, std::memory_order_relaxed);
  if (current_.items.empty()) current_batch_started_wall_ = SteadySeconds();
  current_.items.push_back(
      {conn_id, request.request_id, request.virtual_ts_s});
  if (current_.items.size() >= options_.batch_max_requests) {
    std::lock_guard<std::mutex> lock(batch_mu_);
    FlushCurrentBatchLocked();
    batch_cv_.notify_all();
  }
}

void LiveServer::FlushCurrentBatchLocked() {
  if (current_.items.empty()) return;
  // Canonical in-batch order: connections interleave nondeterministically
  // in the read loop, but timestamps define the schedule position, so
  // sorting restores the global arrival order (request_id breaks exact
  // ties deterministically).
  std::sort(current_.items.begin(), current_.items.end(),
            [](const BatchItem& a, const BatchItem& b) {
              if (a.virtual_ts_s != b.virtual_ts_s)
                return a.virtual_ts_s < b.virtual_ts_s;
              return a.request_id < b.request_id;
            });
  current_.ticket = next_ticket_++;
  batches_flushed_.fetch_add(1, std::memory_order_relaxed);
  CLOVER_OBS_COUNT("serving.batches_flushed", 1);
  CLOVER_OBS_OBSERVE("serving.batch_fill", current_.items.size());
  batched_requests_.fetch_add(current_.items.size(),
                              std::memory_order_relaxed);
  batches_.push_back(std::move(current_));
  current_ = Batch{};
}

void LiveServer::IngestLoop() {
  for (;;) {
    const bool stopping = stop_flag_.load(std::memory_order_acquire);
    // A pending partial batch turns the wait into a spin bounded by the
    // flush deadline (sub-millisecond, below epoll_wait resolution).
    const int timeout_ms = current_.items.empty() && !stopping ? 2 : 0;
    {
      CLOVER_TRACE_SCOPE("serving.ingest_poll");
      epoll_->Poll(timeout_ms);
    }

    for (auto& [conn_id, buffer] : shed_out_) {
      if (!buffer.empty()) epoll_->Send(conn_id, buffer.data(), buffer.size());
    }
    shed_out_.clear();

    if (!current_.items.empty()) {
      const double age_us =
          (SteadySeconds() - current_batch_started_wall_) * 1e6;
      if (stopping || age_us >= options_.batch_flush_us) {
        std::lock_guard<std::mutex> lock(batch_mu_);
        FlushCurrentBatchLocked();
        batch_cv_.notify_all();
      }
    }

    if (stopping) {
      bool drained;
      {
        std::lock_guard<std::mutex> lock(batch_mu_);
        drained = batches_.empty() && next_to_execute_ == next_ticket_;
      }
      if (drained && inflight_.load(std::memory_order_relaxed) == 0) {
        // A couple of extra reactor rounds push out responses workers
        // queued just before inflight_ reached zero.
        epoll_->Poll(0);
        epoll_->Poll(0);
        return;
      }
    }
  }
}

void LiveServer::WorkerLoop(std::size_t worker_index) {
  std::vector<std::pair<int, std::vector<std::uint8_t>>> responses;
  for (;;) {
    Batch batch;
    {
      std::unique_lock<std::mutex> lock(batch_mu_);
      batch_cv_.wait(lock,
                     [&] { return stopping_ || !batches_.empty(); });
      if (batches_.empty()) return;  // stopping_ with everything drained
      batch = std::move(batches_.front());
      batches_.pop_front();
    }

    // Ticket-ordered virtual section: wait for our turn, run the control
    // hook and executor exclusively (ticket ownership is the lock), then
    // pass the baton. Everything after — encoding, socket writes — runs
    // concurrently with the next batch's virtual section.
    struct ItemOutcome {
      BatchItem item;
      VirtualExecutor::Outcome outcome;
    };
    std::vector<ItemOutcome> outcomes;
    outcomes.reserve(batch.items.size());
    {
      CLOVER_TRACE_SCOPE("serving.ticket_wait");
      std::unique_lock<std::mutex> lock(batch_mu_);
      ticket_cv_.wait(lock, [&] { return next_to_execute_ == batch.ticket; });
    }
    if (batch.items.empty()) {
      if (hook_ != nullptr && batch.beacon_ts_s > 0.0)
        hook_->OnVirtualAdvance(batch.beacon_ts_s, &executor_);
    } else {
      CLOVER_TRACE_SCOPE("serving.execute");
      for (const BatchItem& item : batch.items) {
        if (hook_ != nullptr)
          hook_->OnVirtualAdvance(item.virtual_ts_s, &executor_);
        outcomes.push_back({item, executor_.Execute(item.virtual_ts_s)});
      }
    }
    {
      std::lock_guard<std::mutex> lock(batch_mu_);
      ++next_to_execute_;
      ticket_cv_.notify_all();
    }

    if (outcomes.empty()) continue;
    CLOVER_TRACE_SCOPE("serving.respond");
    responses.clear();
    for (const ItemOutcome& entry : outcomes) {
      latency_store_.Record(worker_index, entry.outcome.latency_virtual_ms,
                            entry.outcome.accuracy);
      net::ResponseFrame response;
      response.request_id = entry.item.request_id;
      response.status = net::ResponseStatus::kOk;
      response.latency_virtual_ms = entry.outcome.latency_virtual_ms;
      response.accuracy = entry.outcome.accuracy;
      std::vector<std::uint8_t>* buffer = nullptr;
      for (auto& [conn, bytes] : responses) {
        if (conn == entry.item.conn_id) {
          buffer = &bytes;
          break;
        }
      }
      if (buffer == nullptr) {
        responses.emplace_back(entry.item.conn_id,
                               std::vector<std::uint8_t>());
        buffer = &responses.back().second;
      }
      net::AppendResponse(buffer, response);
    }
    for (auto& [conn_id, bytes] : responses)
      epoll_->Send(conn_id, bytes.data(), bytes.size());
    CLOVER_OBS_COUNT("serving.responses_ok", outcomes.size());
    inflight_.fetch_sub(outcomes.size(), std::memory_order_relaxed);
  }
}

void LiveServer::Stop() {
  if (!started_ || stop_flag_.load(std::memory_order_acquire)) return;
  stop_flag_.store(true, std::memory_order_release);
  epoll_->Wake();
  if (ingest_.joinable()) ingest_.join();
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    stopping_ = true;
  }
  batch_cv_.notify_all();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
  epoll_->Shutdown();
}

LiveStats LiveServer::SnapshotStats() const {
  LiveStats stats;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats.admission = admission_.counters();
  }
  stats.completed = latency_store_.TotalCount();
  const LogHistogramQuantile histogram = latency_store_.FoldHistogram();
  stats.p50_virtual_ms = histogram.Quantile(0.50);
  stats.p99_virtual_ms = histogram.Quantile(0.99);
  const ShardedLatencyStore::Totals totals = latency_store_.FoldTotals();
  stats.mean_virtual_ms = totals.mean_latency_ms;
  stats.mean_accuracy = totals.mean_accuracy;
  stats.batches = batches_flushed_.load(std::memory_order_relaxed);
  stats.mean_batch_fill =
      stats.batches > 0
          ? static_cast<double>(
                batched_requests_.load(std::memory_order_relaxed)) /
                static_cast<double>(stats.batches)
          : 0.0;
  stats.open_connections =
      epoll_ != nullptr ? epoll_->open_connections() : 0;
  return stats;
}

}  // namespace clover::serving
