// The live-vs-simulated parity gate (docs/TESTING.md, "Live vs simulated
// parity"): the same trace pushed through the simulated path
// (ExperimentHarness::Run) and through the live loopback path
// (core/live_service.h — real epoll sockets, admission, batching, worker
// threads) must produce
//
//   * bit-identical control decisions — the live control plane's twin
//     report passes RunReportsBitIdentical against the harness report,
//     and every optimizer invocation passes SearchResultsBitIdentical;
//   * bit-identical results at 1 and 8 worker threads — thread count can
//     parallelize response encoding but never the decision sequence;
//   * latency summaries within documented tolerance — exact for BASE with
//     service jitter pinned to 0 (both substrates then compute the same
//     deterministic G/D/c system over the same arrivals), and within a
//     bounded relative gap for CLOVER, whose twin serves the controller's
//     probe configurations during optimization windows while the live
//     executor keeps the last committed deployment.
//
// Admission is configured unlimited and queue-depth shedding off: the
// depth signal is wall-coupled load protection, not part of the
// replayable decision sequence, and a differential run must serve the
// full schedule.
#include <gtest/gtest.h>

#include <vector>

#include "carbon/trace.h"
#include "core/live_service.h"
#include "opt/annealing.h"

namespace clover::core {
namespace {

void ExpectLiveRunsBitIdentical(const LiveRunResult& a,
                                const LiveRunResult& b) {
  EXPECT_TRUE(RunReportsBitIdentical(a.twin_report, b.twin_report));
  // Live latency accounting: exactly equal, not just close.
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.p50_virtual_ms, b.stats.p50_virtual_ms);
  EXPECT_EQ(a.stats.p99_virtual_ms, b.stats.p99_virtual_ms);
  EXPECT_EQ(a.stats.mean_virtual_ms, b.stats.mean_virtual_ms);
  EXPECT_EQ(a.stats.mean_accuracy, b.stats.mean_accuracy);
  // The committed deployment sequence.
  ASSERT_EQ(a.commits.size(), b.commits.size());
  for (std::size_t i = 0; i < a.commits.size(); ++i) {
    EXPECT_EQ(a.commits[i].boundary_s, b.commits[i].boundary_s);
    EXPECT_EQ(a.commits[i].ready_s, b.commits[i].ready_s);
    EXPECT_TRUE(serving::SameInstances(a.commits[i].deployment,
                                       b.commits[i].deployment));
  }
  // Every optimizer invocation, decision for decision.
  ASSERT_EQ(a.optimizations.size(), b.optimizations.size());
  for (std::size_t i = 0; i < a.optimizations.size(); ++i)
    EXPECT_TRUE(opt::SearchResultsBitIdentical(
        a.optimizations[i].search, b.optimizations[i].search));
}

TEST(LiveDifferential, BaseControlAndLatenciesMatchSimulatedExactly) {
  // BASE, jitter pinned to 0: both substrates run the same deterministic
  // service process over the same Poisson arrivals, so not only the
  // control decisions (trivially — BASE never reconfigures) but the
  // latency quantiles themselves must agree bin for bin.
  const carbon::CarbonTrace trace("flat", 3600.0, {250.0, 250.0});
  ExperimentConfig config;
  config.scheme = Scheme::kBase;
  config.trace = &trace;
  config.duration_hours = 0.25;
  config.num_gpus = config.sizing_gpus = 2;
  config.seed = 3;
  config.service_jitter_sigma = 0.0;

  ExperimentHarness harness(&models::DefaultZoo());
  const RunReport simulated = harness.Run(config);

  LiveRunOptions options;
  options.worker_threads = 1;
  const LiveRunResult live =
      RunLiveExperiment(&harness, &models::DefaultZoo(), config, options);

  EXPECT_TRUE(live.replay.all_acked);
  EXPECT_EQ(live.replay.shed(), 0u);
  EXPECT_TRUE(RunReportsBitIdentical(live.twin_report, simulated));
  EXPECT_TRUE(live.commits.empty());

  // The replay schedule and the sim's internal stream are the same draw:
  // arrival counts agree exactly. Completions differ by the cutoff rule —
  // the sim stops the clock at `duration` with the final arrivals still
  // in flight, while the live server answers everything it admitted — so
  // live completes the full schedule.
  EXPECT_EQ(live.replay.sent, simulated.arrivals);
  EXPECT_EQ(live.stats.completed, live.replay.sent);
  EXPECT_GE(live.stats.completed, simulated.completions);

  // Documented tolerance, BASE: none. Same arrivals, same deterministic
  // service times, same dispatch rule, same histogram geometry.
  EXPECT_EQ(live.stats.p50_virtual_ms, simulated.overall_p50_ms);
  EXPECT_EQ(live.stats.p99_virtual_ms, simulated.overall_p99_ms);
}

TEST(LiveDifferential, CloverControlDecisionsBitIdenticalAt1And8Workers) {
  // CLOVER over a stepping trace: the controller optimizes on the carbon
  // swings and commits reconfigurations; the live path must reproduce the
  // harness's decision sequence exactly, at any worker count.
  const carbon::CarbonTrace trace("step", 600.0,
                                  {120.0, 320.0, 120.0, 320.0});
  ExperimentConfig config;
  config.scheme = Scheme::kClover;
  config.trace = &trace;
  config.duration_hours = 0.5;
  config.num_gpus = config.sizing_gpus = 2;
  config.seed = 5;
  config.service_jitter_sigma = 0.0;

  ExperimentHarness harness(&models::DefaultZoo());
  const RunReport simulated = harness.Run(config);
  ASSERT_FALSE(simulated.optimizations.empty());

  auto run_live = [&](std::size_t workers) {
    LiveRunOptions options;
    options.worker_threads = workers;
    return RunLiveExperiment(&harness, &models::DefaultZoo(), config,
                             options);
  };
  const LiveRunResult live1 = run_live(1);
  const LiveRunResult live8 = run_live(8);

  EXPECT_TRUE(live1.replay.all_acked);
  EXPECT_TRUE(live8.replay.all_acked);

  // Live vs simulated: the twin's decisions are the harness's decisions.
  EXPECT_TRUE(RunReportsBitIdentical(live1.twin_report, simulated));
  EXPECT_TRUE(RunReportsBitIdentical(live8.twin_report, simulated));
  ASSERT_EQ(live1.optimizations.size(), simulated.optimizations.size());
  for (std::size_t i = 0; i < live1.optimizations.size(); ++i)
    EXPECT_TRUE(opt::SearchResultsBitIdentical(
        live1.optimizations[i].search, simulated.optimizations[i].search));

  // 1 worker vs 8 workers: everything, bit for bit.
  ExpectLiveRunsBitIdentical(live1, live8);

  // Documented tolerance, CLOVER: the twin serves the controller's probe
  // configurations during optimization windows (a live cluster cannot
  // time-travel through candidates), and saturated probes put multi-
  // second latencies into the simulated tail that the live path — which
  // keeps serving the last committed deployment — never experiences. The
  // median sits outside the probe windows on both paths, so it agrees to
  // 25% relative; the tail claim is one-sided: live p99 can only be
  // better than the probe-tainted simulated p99.
  EXPECT_GT(live1.stats.p50_virtual_ms, 0.0);
  EXPECT_NEAR(live1.stats.p50_virtual_ms, simulated.overall_p50_ms,
              0.25 * simulated.overall_p50_ms);
  EXPECT_GT(live1.stats.p99_virtual_ms, 0.0);
  EXPECT_LE(live1.stats.p99_virtual_ms,
            simulated.overall_p99_ms * 1.25);
}

TEST(LiveDifferential, MultiConnectionReplayPreservesControlDecisions) {
  // Interleaving the schedule across 4 client connections makes socket-
  // level arrival order nondeterministic, and a straggler that lands past
  // a batch-flush boundary can shift individual executor outcomes — but
  // the control plane keys off the high-water virtual clock, which only
  // moves forward, so the boundary/decision sequence (and therefore the
  // twin report) must not move. Accounting conservation must hold too:
  // every request is answered exactly once.
  const carbon::CarbonTrace trace("flat", 3600.0, {250.0, 250.0});
  ExperimentConfig config;
  config.scheme = Scheme::kClover;
  config.trace = &trace;
  config.duration_hours = 0.25;
  config.num_gpus = config.sizing_gpus = 2;
  config.seed = 7;
  config.service_jitter_sigma = 0.0;

  ExperimentHarness harness(&models::DefaultZoo());
  auto run_live = [&](int connections) {
    LiveRunOptions options;
    options.worker_threads = 2;
    options.connections = connections;
    return RunLiveExperiment(&harness, &models::DefaultZoo(), config,
                             options);
  };
  const LiveRunResult one = run_live(1);
  const LiveRunResult four = run_live(4);
  EXPECT_TRUE(one.replay.all_acked);
  EXPECT_TRUE(four.replay.all_acked);
  EXPECT_TRUE(RunReportsBitIdentical(one.twin_report, four.twin_report));
  EXPECT_EQ(one.stats.completed, four.stats.completed);
  EXPECT_EQ(four.replay.sent, four.replay.ok + four.replay.shed());
}

}  // namespace
}  // namespace clover::core
