// Digital-twin control plane for the live serving path.
//
// The live server's control decisions must be *bit-identical* to
// ExperimentHarness::Run's on the same configuration. Rather than
// re-implementing the controller against live telemetry, the live control
// plane holds the simulated experiment itself — an ExperimentRun
// (core/harness.h), the "twin" — and applies each control boundary's
// outcome as the virtual timestamps of live traffic (serving/live_server.h)
// cross it. The boundary schedule, the advance and the controller step are
// the harness's own code; traffic only decides *when* a commit is applied.
// The twin consumes its own Poisson arrival stream (the same (rate, seed)
// the replay schedule was drawn from), so its state at every boundary, and
// every controller decision, depends on the config alone. TwinReport()
// then satisfies RunReportsBitIdentical against the harness, and the
// commit log gives the live executor the same deployments at the same
// virtual times.
//
// Fidelity boundary, stated honestly: *decisions* are bit-identical by
// construction; *live latencies* are close but not identical to the
// twin's, because the controller's candidate probes run against the twin
// only (a live cluster cannot time-travel through candidate configs), so
// during optimization windows the twin serves probe deployments while the
// live executor keeps the last commit. The differential test bounds that
// gap with an explicit tolerance (docs/TESTING.md, "Live vs simulated
// parity").
//
// Threading. The twin runs on its own thread, started by the constructor.
// That thread owns run_ from construction until Finish() (or the
// destructor) joins it: it fires the run's boundaries in order, at most
// kTwinLead of them ahead of the last boundary the traffic crossed, and
// publishes each as (boundary, changed deployment or none) through a
// bounded queue. OnVirtualAdvance is called from the live server's
// workers, always inside the ticket-ordered section (live_server.h), so
// the worker side — the crossing cursor, the executor, commits() — is
// single-threaded. Below the next boundary a call is one comparison
// against the cursor, which walks run_.boundaries() (fixed at
// construction); crossing a boundary takes its queued entry and applies
// the commit, if any, to the executor. A worker blocks only when the twin
// is behind, i.e. has not fired that boundary yet; the twin blocks while
// its lead is full. Nothing spins.
//
// Reading ahead: with a positive lead the twin reads the carbon trace up to
// kTwinLead control intervals ahead of the traffic's virtual clock.
// Decisions do not change — they depend on the config alone — only the
// wall time at which they are computed does.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/harness.h"
#include "serving/live_server.h"

namespace clover::core {

class LiveControlPlane : public serving::LiveControlHook {
 public:
  // Boundaries the twin may fire ahead of the traffic. Bounded so the twin
  // reads only a few control intervals of the carbon trace ahead of the
  // live clock, keeps at most this many deployments queued, and idles
  // instead of racing to the end of the run while the traffic is slow;
  // four intervals cover a step's cost several times over at the paces the
  // live path runs.
  static constexpr std::size_t kTwinLead = 4;

  // Supports kBase (no controller), kClover and kBlover. The config is
  // interpreted exactly as ExperimentHarness::Run does — calibration via
  // `harness` (shared cache), trace dropout repair, sigma override. `zoo`
  // must be the harness's; the executor loads committed deployments from it.
  // Starts the twin thread.
  LiveControlPlane(ExperimentHarness* harness, const models::ModelZoo* zoo,
                   const ExperimentConfig& config);
  // Stops the twin after at most the boundary it is firing, and joins it.
  ~LiveControlPlane() override;
  LiveControlPlane(const LiveControlPlane&) = delete;
  LiveControlPlane& operator=(const LiveControlPlane&) = delete;

  // Fixed at construction; safe to call while the twin runs.
  double arrival_rate_qps() const { return arrival_rate_qps_; }
  double duration_s() const { return duration_s_; }
  double control_interval_s() const { return control_interval_s_; }
  const serving::Deployment& initial_deployment() const { return initial_; }

  // serving::LiveControlHook: applies every boundary strictly below
  // `virtual_ts_s` (the simulator serves an arrival at exactly t before
  // the controller steps at t, so the boundary at ts itself waits).
  // A call that crosses a boundary rethrows an exception a twin step
  // threw.
  void OnVirtualAdvance(double virtual_ts_s,
                        serving::VirtualExecutor* executor) override {
    while (virtual_ts_s > next_boundary_s_) ApplyNextBoundary(executor);
  }

  // Applies the boundaries the traffic never crossed, waits for the twin to
  // advance to the end of the run, and joins it. Call once, after the live
  // server has stopped. Rethrows an exception a twin step threw.
  void Finish(serving::VirtualExecutor* executor);

  // The twin's run report — the object the differential test holds against
  // the real harness with RunReportsBitIdentical. Requires Finish().
  RunReport TwinReport() const;

  struct DeploymentCommit {
    double boundary_s = 0.0;  // control boundary that produced the commit
    double ready_s = 0.0;     // executor's all-GPUs-online time
    serving::Deployment deployment;
  };
  const std::vector<DeploymentCommit>& commits() const { return commits_; }

 private:
  // One fired boundary, as the twin publishes it.
  struct FiredBoundary {
    double boundary_s = 0.0;  // min(t, D)
    std::optional<serving::Deployment> changed;  // set when it reconfigured
  };

  void TwinLoop();
  // Takes the next fired boundary (waiting if the twin has not fired it)
  // and commits its deployment, if it changed, to `executor`.
  void ApplyNextBoundary(serving::VirtualExecutor* executor);

  const models::ModelZoo* zoo_;
  ExperimentRun run_;  // the twin thread's until joined
  const serving::Deployment initial_;
  const double arrival_rate_qps_;
  const double duration_s_;
  const double control_interval_s_;

  // Worker side.
  std::size_t crossed_ = 0;  // boundaries applied
  double next_boundary_s_;   // run_.boundaries()[crossed_], or +inf
  std::vector<DeploymentCommit> commits_;

  // Handoff, under mu_.
  std::mutex mu_;
  std::condition_variable twin_cv_;    // the twin waits for room to lead
  std::condition_variable worker_cv_;  // a worker waits for a boundary
  std::deque<FiredBoundary> fired_;    // fired, not yet applied
  bool stop_ = false;
  std::exception_ptr twin_error_;

  std::thread twin_;  // last: starts once every member above is built
};

}  // namespace clover::core
