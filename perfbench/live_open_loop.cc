// live_open_loop: the live serving front-end under open-loop load.
//
// CLOVER, classification, 4 GPUs, 6 virtual hours of the CISO March trace.
// The benchmark's own client (open_loop_client.h) replays the Poisson
// schedule from core::BuildReplaySchedule on one connection, paced so the
// mean offered rate is 800k req/s, against a LiveServer with 1 worker,
// unlimited admission and a core::LiveControlPlane whose twin steps inside
// the ticket-ordered section. A second, fresh server then takes a flood
// replay of the same schedule, which measures saturation throughput.
// Threads: client 1 + ingest 1 + worker 1, one core fewer than a 4-core
// host has: the client and the ingest thread spin, and a fourth spinning
// thread left the client preempted for milliseconds in some passes. A
// second worker bought no throughput (the twin's virtual work runs one
// ticket at a time).
#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "bench.h"
#include "core/harness.h"
#include "core/live_control.h"
#include "core/live_service.h"
#include "exp/campaign.h"
#include "models/zoo.h"
#include "obs/trace.h"
#include "open_loop_client.h"
#include "serving/live_server.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = clover::core;
namespace models = clover::models;
namespace serving = clover::serving;

constexpr double kHours = 6.0;
constexpr int kGpus = 4;
constexpr double kOfferedRps = 800e3;
constexpr std::size_t kWorkers = 1;
constexpr double kLatencyLimitMs = 5.0;
// Traced pass: per-thread trace ring, and the window of the open-loop
// phase (about 2.3 s long) the serving spans are recorded in.
constexpr std::size_t kLiveRingEvents = std::size_t{1} << 21;
constexpr double kWindowStartS = 0.8;
constexpr double kWindowS = 0.3;

// Forwards to the control plane and times the calls that fire at least
// one control boundary (the others return after one comparison).
class TimedHook : public serving::LiveControlHook {
 public:
  explicit TimedHook(core::LiveControlPlane* plane)
      : plane_(plane), next_boundary_s_(plane->control_interval_s()) {}

  void OnVirtualAdvance(double virtual_ts_s,
                        serving::VirtualExecutor* executor) override {
    if (virtual_ts_s <= next_boundary_s_) {
      plane_->OnVirtualAdvance(virtual_ts_s, executor);
      return;
    }
    const double start = Now();
    plane_->OnVirtualAdvance(virtual_ts_s, executor);
    seconds_ += Now() - start;
    ++calls_;
    while (next_boundary_s_ < virtual_ts_s)
      next_boundary_s_ += plane_->control_interval_s();
  }

  double seconds() const { return seconds_; }
  std::uint64_t calls() const { return calls_; }

 private:
  core::LiveControlPlane* plane_;
  double next_boundary_s_;
  double seconds_ = 0.0;
  std::uint64_t calls_ = 0;
};

serving::LiveServerOptions ServerOptions() {
  serving::LiveServerOptions options;
  options.worker_threads = kWorkers;
  // Unlimited admission: the bucket never empties at a realizable rate.
  options.admission.bucket.rate_per_s = 1e12;
  options.admission.bucket.burst = 1e12;
  return options;
}

// One server lifetime: control plane, server started on loopback.
struct LiveStack {
  std::unique_ptr<core::LiveControlPlane> control;
  std::unique_ptr<TimedHook> timed_hook;
  std::unique_ptr<serving::LiveServer> server;
  std::uint16_t port = 0;

  LiveStack(core::ExperimentHarness* harness, const models::ModelZoo* zoo,
            const core::ExperimentConfig& config, bool timed)
      : control(std::make_unique<core::LiveControlPlane>(harness, zoo,
                                                         config)) {
    serving::LiveControlHook* hook = control.get();
    if (timed) {
      timed_hook = std::make_unique<TimedHook>(control.get());
      hook = timed_hook.get();
    }
    server = std::make_unique<serving::LiveServer>(
        control->initial_deployment(), *zoo, ServerOptions(), hook);
    port = server->Start();
  }
};

struct PhaseOutcome {
  OpenLoopReport client;
  serving::LiveStats stats;
  core::RunReport twin;
};

PhaseOutcome RunPhase(LiveStack* stack,
                      const std::vector<clover::net::ScheduledRequest>& schedule,
                      double time_scale) {
  OpenLoopOptions options;
  options.port = stack->port;
  options.time_scale = time_scale;
  // Past the last boundary, so every control step fires from traffic.
  options.final_beacon_ts_s =
      stack->control->duration_s() + stack->control->control_interval_s();
  PhaseOutcome outcome;
  outcome.client = RunOpenLoop(schedule, options);
  stack->server->Stop();
  stack->control->Finish(stack->server->mutable_executor());
  outcome.stats = stack->server->SnapshotStats();
  outcome.twin = stack->control->TwinReport();
  return outcome;
}

// Per-pass figures of the open-loop phase.
struct OpenLoopFigures {
  Percentiles latency;
  Percentiles lag;
  Percentiles accept_lag;
  double goodput = 0.0;
  double p95_virtual_ms = 0.0;
  double mean_accuracy = 0.0;
};

OpenLoopFigures Figures(OpenLoopReport* client) {
  OpenLoopFigures f;
  std::size_t good = 0;
  for (double ms : client->latency_ms) good += ms <= kLatencyLimitMs;
  f.goodput = client->sent ? static_cast<double>(good) /
                                 static_cast<double>(client->sent)
                           : 0.0;
  f.latency = Summarize(&client->latency_ms);
  f.lag = Summarize(&client->lag_ms);
  f.accept_lag = Summarize(&client->accept_lag_ms);
  std::vector<double> virtual_ms = client->virtual_ms;
  std::sort(virtual_ms.begin(), virtual_ms.end());
  f.p95_virtual_ms = virtual_ms.empty() ? 0.0 : NearestRank(virtual_ms, 0.95);
  double accuracy = 0.0;
  for (double a : client->accuracy) accuracy += a;
  f.mean_accuracy =
      client->accuracy.empty() ? 0.0
                               : accuracy / static_cast<double>(
                                                client->accuracy.size());
  return f;
}

}  // namespace

void RunLiveOpenLoop(const Args& args, Result* result) {
  std::unique_ptr<models::ModelZoo> zoo;
  std::optional<clover::carbon::CarbonTrace> trace;
  std::unique_ptr<core::ExperimentHarness> harness;
  core::ExperimentConfig config;
  std::vector<clover::net::ScheduledRequest> schedule;
  std::unique_ptr<LiveStack> first;
  clover::exp::CellSpec cell;
  cell.app = models::Application::kClassification;
  cell.trace = "ciso-march";
  cell.hours = kHours;
  cell.gpus = kGpus;
  cell.seed = args.seed;
  SetupTimer setup([&] {
    if (first != nullptr) first->server->Stop();
    first.reset();
    zoo = std::make_unique<models::ModelZoo>();
    trace.emplace(clover::exp::MakeCellTrace(cell));
    config = clover::exp::MakeCellConfig(cell, {}, &*trace);
    harness = std::make_unique<core::ExperimentHarness>(zoo.get());
    first = std::make_unique<LiveStack>(harness.get(), zoo.get(), config,
                                        false);
    schedule = core::BuildReplaySchedule(first->control->arrival_rate_qps(),
                                         config.seed,
                                         first->control->duration_s());
  });
  const double time_scale = first->control->arrival_rate_qps() / kOfferedRps;
  const core::RunReport reference = harness->Run(config);

  // Per pass: latency figures of every pass, and whether its generator
  // kept to the schedule.
  std::vector<double> p50, p99, p999, lag_p99, accept_lag_p99, goodput,
      flood_walls;
  std::vector<bool> valid;
  OpenLoopFigures figures;
  PhaseOutcome open, flood;
  auto check_phase = [&](const PhaseOutcome& phase, const char* name) {
    const OpenLoopReport& c = phase.client;
    result->attempted += c.sent;
    result->failed += c.shed + c.unanswered;
    result->Check(c.sent == schedule.size(),
                  std::string(name) + ": not every request was sent");
    result->Check(c.sent == c.ok + c.shed && c.unanswered == 0 &&
                      c.duplicates == 0,
                  std::string(name) + ": sent != ok + shed, or unanswered");
    result->Check(core::RunReportsBitIdentical(phase.twin, reference),
                  std::string(name) +
                      ": twin report differs from ExperimentHarness::Run");
  };
  const std::vector<double> walls = RepeatPasses(args.seconds, &setup, [&] {
    const double start = Now();
    open = RunPhase(first.get(), schedule, time_scale);
    first.reset();
    LiveStack flood_stack(harness.get(), zoo.get(), config, false);
    flood = RunPhase(&flood_stack, schedule, 0.0);
    check_phase(open, "open loop");
    check_phase(flood, "flood");
    figures = Figures(&open.client);
    lag_p99.push_back(figures.lag.p99);
    accept_lag_p99.push_back(figures.accept_lag.p99);
    flood_walls.push_back(flood.client.wall_s);
    valid.push_back(figures.lag.p99 <= kMaxLagP99Ms);
    p50.push_back(figures.latency.p50);
    p99.push_back(figures.latency.p99);
    p999.push_back(figures.latency.p999);
    goodput.push_back(figures.goodput);
    return Now() - start;
  });
  result->Set("setup_s", setup.MedianSeconds(), "s");
  // A pass whose generator fell behind did not offer the schedule it
  // claims, so its latency is not a measurement of the server: latency is
  // taken over the valid passes. The generator's lateness is the host's,
  // not the program's, so it fails no check; when no pass is valid the
  // figures come from every pass and a note says so.
  const std::size_t valid_passes =
      static_cast<std::size_t>(std::count(valid.begin(), valid.end(), true));
  auto over_valid = [&](const std::vector<double>& per_pass) {
    if (valid_passes == 0) return Median(per_pass);
    std::vector<double> kept;
    for (std::size_t i = 0; i < per_pass.size(); ++i)
      if (valid[i]) kept.push_back(per_pass[i]);
    return Median(kept);
  };
  std::string lags = "send lag p99 per pass, ms:";
  for (double lag : lag_p99) lags += " " + Fixed(lag, 3);
  result->Note(lags + " (a pass over " + Fixed(kMaxLagP99Ms, 1) +
               " ms is invalid)");
  if (valid_passes == 0)
    result->Note("generator fell behind in every pass: latency is over all "
                 "passes, not a measurement of the server alone");
  const double flood_wall = Median(flood_walls);
  result->Set("latency_p50_ms", over_valid(p50), "ms");
  result->Set("latency_p99_ms", over_valid(p99), "ms");
  result->Set("goodput_frac", over_valid(goodput), "fraction");
  result->Set("region_hours_per_s", kHours / flood_wall, "region-h/s");
  result->Set("saturation_rps",
              static_cast<double>(flood.client.ok) / flood_wall, "1/s");
  const double p95_over_sla =
      figures.p95_virtual_ms / open.twin.params.l_tail_ms;
  result->Set("p95_over_sla", p95_over_sla, "ratio");
  result->Check(p95_over_sla <= 1.0,
                "live virtual p95 is over the SLA: " + Fixed(p95_over_sla, 3));
  result->Set("gco2_per_kreq", open.twin.carbon_per_request_g * 1e3,
              "g/kreq");
  result->Set("accuracy_pct", figures.mean_accuracy, "%");
  result->Set("loadgen.lag_p99_ms", Median(lag_p99), "ms");
  result->Set("peak_rss_mb", PeakRssMb(), "MiB");
  result->Note("open loop: " + std::to_string(valid_passes) + " valid of " +
               std::to_string(walls.size()) + " passes of " +
               std::to_string(schedule.size()) + " requests at " +
               Fixed(kOfferedRps / 1e3, 0) + "k req/s; latency p50 " +
               Fixed(over_valid(p50), 4) + " ms, p99 " +
               Fixed(over_valid(p99), 4) + " ms, p99.9 " +
               Fixed(over_valid(p999), 4) + " ms (" +
               std::to_string(figures.latency.count) + " samples, " +
               std::to_string(figures.latency.beyond_p99) +
               " beyond p99, " + std::to_string(figures.latency.beyond_p999) +
               " beyond p99.9); send lag p99 " + Fixed(Median(lag_p99), 4) +
               " ms (socket-accept lag p99 " +
               Fixed(Median(accept_lag_p99), 4) + " ms)");
  result->Note("flood: " + Fixed(static_cast<double>(flood.client.ok) /
                                     flood_wall / 1e6, 3) +
               "M req/s over " + Fixed(flood_wall, 3) + " s");
  if (!args.trace) return;

  // Traced pass. While a batch is pending the ingest thread spins through
  // empty polls (a couple of million spans a second), so the open-loop
  // phase is traced through a window in its middle and span seconds are
  // scaled from the window to the whole phase. The control hook is timed
  // over the whole phase.
  clover::obs::Tracer& tracer = clover::obs::Tracer::Get();
  EnableTracing(kLiveRingEvents);
  core::ExperimentHarness traced_harness(zoo.get());
  {
    clover::obs::ScopedSpan span("carbon.trace_build");
    clover::exp::MakeCellTrace(cell);
  }
  {
    clover::obs::ScopedSpan span("core.calibrate");
    traced_harness.Calibrate(config.app, config.sizing_gpus,
                             config.utilization_target,
                             config.arrival_rate_qps, config.seed);
  }
  tracer.Disable();
  LiveStack traced_stack(&traced_harness, zoo.get(), config, true);
  const double phase_start = Now();
  double window_start = 0.0, window_end = 0.0, window_closed = 0.0;
  PhaseOutcome traced_open;
  {
    std::jthread window([&] {
      std::this_thread::sleep_for(std::chrono::duration<double>(kWindowStartS));
      EnableTracing(kLiveRingEvents);
      window_start = TraceNow();
      std::this_thread::sleep_for(std::chrono::duration<double>(kWindowS));
      window_end = TraceNow();
      tracer.Disable();
      window_closed = Now();
    });
    traced_open = RunPhase(&traced_stack, schedule, time_scale);
  }
  const std::vector<SpanEvent> spans = CollectSpans(args, result);
  check_phase(traced_open, "traced open loop");
  result->Check(window_closed <= phase_start + traced_open.client.wall_s,
                "trace window outlasted the open-loop phase");

  // Tracing cost: the flood again with the tracer recording (nothing reads
  // these rings), against the untraced floods.
  EnableTracing(kLiveRingEvents);
  LiveStack traced_flood_stack(&traced_harness, zoo.get(), config, false);
  const PhaseOutcome traced_flood =
      RunPhase(&traced_flood_stack, schedule, 0.0);
  tracer.Disable();
  check_phase(traced_flood, "traced flood");
  SetTraceOverhead(traced_flood.client.wall_s, flood_wall, result);

  const auto whole = FoldSpans(spans);
  result->Set("core.calibrate_s", Exclusive(whole, "core.calibrate"), "s");
  result->Set("carbon.trace_build_s", Exclusive(whole, "carbon.trace_build"),
              "s");
  const auto fold = FoldSpans(spans, window_start, window_end);
  const double window_s = window_end - window_start;
  const double scale = traced_open.client.wall_s / window_s;
  const double ticket_wait = Exclusive(fold, "serving.ticket_wait");
  const double execute = Exclusive(fold, "serving.execute");
  const double respond = Exclusive(fold, "serving.respond");
  const double ingest = Exclusive(fold, "serving.ingest_poll");
  result->Set("serving.ticket_wait_s", ticket_wait * scale, "s");
  result->Set("serving.execute_s", execute * scale, "s");
  result->Set("serving.respond_s", respond * scale, "s");
  result->Set("serving.ingest_poll_s", ingest * scale, "s");
  const double worker_busy = ticket_wait + execute + respond;
  result->Set("serving.ticket_wait_share",
              worker_busy > 0 ? ticket_wait / worker_busy : 0.0, "fraction");
  // Share of the server threads' (ingest + workers) window time spent
  // inside a named serving span.
  result->Set("layer.attributed_frac",
              (worker_busy + ingest) /
                  (window_s * static_cast<double>(kWorkers + 1)),
              "fraction");
  result->Set("serving.batches",
              static_cast<double>(traced_open.stats.batches), "count");
  result->Set("serving.batch_fill", traced_open.stats.mean_batch_fill,
              "requests");
  result->Set("core.twin_advance_s", traced_stack.timed_hook->seconds(), "s");
  result->Set("core.twin_advance_calls",
              static_cast<double>(traced_stack.timed_hook->calls()), "count");
  const OpenLoopReport& c = traced_open.client;
  result->Set("net.sent", static_cast<double>(c.sent), "count");
  result->Set("net.ok", static_cast<double>(c.ok), "count");
  result->Set("net.shed", static_cast<double>(c.shed), "count");
  result->Set("net.unanswered", static_cast<double>(c.unanswered), "count");
}

}  // namespace perfbench
