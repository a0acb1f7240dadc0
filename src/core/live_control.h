// Digital-twin control plane for the live serving path.
//
// The live server's control decisions must be *bit-identical* to
// ExperimentHarness::Run's on the same configuration. Rather than
// re-implementing the controller against live telemetry, the live control
// plane holds the simulated experiment itself — an ExperimentRun
// (core/harness.h), the "twin" — and fires its control boundaries as the
// virtual timestamps of live traffic (serving/live_server.h) cross them.
// The boundary schedule, the advance and the controller step are the
// harness's own code; only *when* a boundary fires is decided by traffic.
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
// Threading: OnVirtualAdvance is called from the live server's workers,
// but always inside the ticket-ordered section, so this class needs no
// synchronization (live_server.h).
#pragma once

#include <vector>

#include "core/harness.h"
#include "serving/live_server.h"

namespace clover::core {

class LiveControlPlane : public serving::LiveControlHook {
 public:
  // Supports kBase (no controller), kClover and kBlover. The config is
  // interpreted exactly as ExperimentHarness::Run does — calibration via
  // `harness` (shared cache), trace dropout repair, sigma override. `zoo`
  // must be the harness's; the executor loads committed deployments from it.
  LiveControlPlane(ExperimentHarness* harness, const models::ModelZoo* zoo,
                   const ExperimentConfig& config);

  double arrival_rate_qps() const {
    return run_.calibration().arrival_rate_qps;
  }
  double duration_s() const { return run_.duration_s(); }
  double control_interval_s() const {
    return run_.config().control_interval_s;
  }
  const serving::Deployment& initial_deployment() const { return initial_; }

  // serving::LiveControlHook: fires every boundary strictly below
  // `virtual_ts_s` (the simulator serves an arrival at exactly t before
  // the controller steps at t, so the boundary at ts itself waits).
  void OnVirtualAdvance(double virtual_ts_s,
                        serving::VirtualExecutor* executor) override;

  // Fires any boundaries the traffic never crossed and advances the twin
  // to the end of the run. Call once, after the live server has stopped.
  void Finish(serving::VirtualExecutor* executor);

  // The twin's run report — the object the differential test holds against
  // the real harness with RunReportsBitIdentical. Requires Finish().
  RunReport TwinReport() const { return run_.Report(); }

  struct DeploymentCommit {
    double boundary_s = 0.0;  // control boundary that produced the commit
    double ready_s = 0.0;     // executor's all-GPUs-online time
    serving::Deployment deployment;
  };
  const std::vector<DeploymentCommit>& commits() const { return commits_; }

 private:
  // Fires the next boundary on the twin and commits a changed deployment
  // to `executor`.
  void FireBoundary(serving::VirtualExecutor* executor);

  const models::ModelZoo* zoo_;
  ExperimentRun run_;
  const serving::Deployment initial_;
  serving::Deployment last_deployment_;
  std::vector<DeploymentCommit> commits_;
};

}  // namespace clover::core
