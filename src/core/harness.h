// Experiment harness: runs one (scheme, application, trace) evaluation and
// produces the report the bench binaries print (paper Sec. 5 methodology).
//
// The harness implements the paper's setup rules:
//  * arrival rate sized so BASE on the sizing cluster runs ~75% utilized;
//  * SLA = p95 tail latency of BASE measured on a calibration run;
//  * C_base = BASE energy/request at a fixed reference intensity;
//  * all schemes serve the same Poisson stream over the same CI trace.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "carbon/monitor.h"
#include "carbon/trace.h"
#include "core/controller.h"
#include "core/oracle.h"
#include "core/schemes.h"
#include "graph/mapping.h"
#include "models/zoo.h"
#include "opt/objective.h"
#include "sim/cluster_sim.h"
#include "sim/meanfield.h"

namespace clover::core {

struct ExperimentConfig {
  models::Application app = models::Application::kClassification;
  Scheme scheme = Scheme::kClover;
  const carbon::CarbonTrace* trace = nullptr;
  double duration_hours = 48.0;
  int num_gpus = 10;
  // The cluster size the arrival rate is sized against (differs from
  // num_gpus only in the reduced-provisioning study, Fig. 15).
  int sizing_gpus = 10;
  double utilization_target = 0.75;
  std::optional<double> arrival_rate_qps;  // overrides the sizing rule
  // Burst modulation of the arrival process (scenario-matrix stress runs).
  // Calibration always runs steady: the SLA is defined on the steady
  // baseline, so bursts show up as SLO pressure, not a relaxed target.
  sim::BurstOptions burst;
  // Fault schedule replayed against the run (sim/fault_injector.h): GPU
  // fail-stop windows and flash crowds go to the simulator; carbon-trace
  // dropouts are repaired (last observation carried forward) before the
  // pipeline sees the trace. Calibration stays fault-free for the same
  // reason it stays steady.
  sim::FaultSchedule faults;
  // Overrides the simulator's service-time jitter (perf::kServiceJitterSigma
  // by default). The live-vs-simulated differential test pins it to 0 so
  // service times are a pure function of (variant, slice) on both paths;
  // evaluation runs leave it unset. Calibration is unaffected either way —
  // the SLA stays defined on the standard jittered baseline.
  std::optional<double> service_jitter_sigma;
  double lambda = 0.5;                     // objective weight (paper default)
  std::optional<double> accuracy_limit_pct;  // threshold mode (Fig. 14)
  double ci_base = 250.0;  // reference intensity for C_base
  std::uint64_t seed = 1;
  double control_interval_s = 300.0;
  Controller::Options controller;  // scheme/seed fields are overwritten
};

struct RunReport {
  // Context.
  models::Application app = models::Application::kClassification;
  Scheme scheme = Scheme::kBase;
  double arrival_rate_qps = 0.0;
  opt::ObjectiveParams params;

  // Totals over the run.
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  double total_energy_j = 0.0;
  double total_carbon_g = 0.0;
  double weighted_accuracy = 0.0;
  double overall_p50_ms = 0.0;
  double overall_p95_ms = 0.0;
  double overall_p99_ms = 0.0;
  double carbon_per_request_g = 0.0;
  // Host wall-clock time the harness spent on this run (simulation +
  // optimization). Per-run metadata: bench scenarios time their *scenario*
  // span with bench::WallTimer (runs may execute concurrently, so per-run
  // walls do not sum to scenario wall); exp::FromReports surfaces the
  // slowest run's wall in the scenario notes.
  double wall_seconds = 0.0;
  // Simulated events processed (arrivals + completions), for events/sec.
  std::uint64_t sim_events = 0;

  // Per-window series (5-minute windows).
  std::vector<sim::WindowRecord> windows;
  std::vector<double> objective_series;  // f per window

  // Optimization bookkeeping (CLOVER / BLOVER only).
  std::vector<OptimizationRun> optimizations;
  double optimization_seconds = 0.0;
  std::uint64_t cache_hits = 0;

  // Derived comparisons against a BASE report from the same setting.
  double CarbonSavePctVs(const RunReport& base) const;
  double AccuracyLossPctVs(const RunReport& base) const;
  double AccuracyGainPctVs(const RunReport& base) const {
    return -AccuracyLossPctVs(base);
  }
  double P95NormVs(const RunReport& base) const;
};

// The objective f of one closed window: its accuracy, energy per request
// (`fallback_energy_per_request_j` stands in when it served nothing) and
// p95 at its carbon intensity. One entry of a report's objective series;
// the fleet scores its folded windows with it too.
double WindowObjective(const sim::WindowRecord& window,
                       const opt::ObjectiveParams& params,
                       double fallback_energy_per_request_j);

// Fills a report's run totals and overall quantiles from either fidelity
// tier (the fluid tier's taps are ClusterSim-shaped). The fleet's
// per-region reports take these and build their objective series window
// by window as the regions hand their windows over.
void FillRunTotalsFromSim(const sim::ClusterSim& sim, RunReport* report);
void FillRunTotalsFromSim(const sim::MeanFieldSim& sim, RunReport* report);

// Fills the simulator-derived tail of a report: the run totals plus the
// per-window series and its objective series. Context fields
// (app/scheme/params/rate) and optimization bookkeeping stay with the
// caller.
void FillRunReportFromSim(const sim::ClusterSim& sim,
                          const opt::ObjectiveParams& params,
                          double fallback_energy_per_request_j,
                          RunReport* report);

// Bit-identity predicate over the simulator-derived report fields (counters,
// totals, quantiles, objective series, optimization count). The determinism
// contract for repeated runs of one configuration; shared by the fleet's
// cross-thread-count check and bench_runner's fault_recovery twin.
bool RunReportsBitIdentical(const RunReport& a, const RunReport& b);

// The control boundaries t = I, 2I, ... (accumulated) while
// t <= D + 1e-9, unclamped: the one schedule the harness, the live control
// plane and the fleet loop step over. CheckError unless I > 0.
std::vector<double> ControlBoundaries(double interval_s, double duration_s);

// Baseline calibration shared by all schemes of a setting.
struct BaselineCalibration {
  double arrival_rate_qps = 0.0;
  double l_tail_ms = 0.0;             // SLA target (p95 of BASE)
  double energy_per_request_j = 0.0;  // BASE energy per request
  double a_base = 0.0;                // BASE accuracy
};

class ExperimentHarness {
 public:
  explicit ExperimentHarness(const models::ModelZoo* zoo);

  // Calibrates (and caches) the BASE reference for a setting.
  const BaselineCalibration& Calibrate(models::Application app,
                                       int sizing_gpus,
                                       double utilization_target,
                                       std::optional<double> rate_override,
                                       std::uint64_t seed);

  // Runs one experiment end to end (an ExperimentRun driven to the end).
  RunReport Run(const ExperimentConfig& config);

  // Builds (and caches) the profiled oracle for a setting.
  Oracle& OracleFor(models::Application app, int num_gpus,
                    double arrival_rate_qps, std::uint64_t seed);

  const models::ModelZoo& zoo() const { return *zoo_; }

 private:
  const models::ModelZoo* zoo_;
  std::map<std::tuple<int, int, int, std::uint64_t>, BaselineCalibration>
      calibration_cache_;  // (app, gpus, rate_key, seed)
  std::map<std::tuple<int, int, int, std::uint64_t>, Oracle> oracle_cache_;
};

// One experiment in progress: the setup, control loop and report of
// ExperimentHarness::Run, stepped one control boundary at a time.
// ExperimentHarness::Run drives it to the end in one call; the live control
// plane (core/live_control.h) fires each boundary as live traffic crosses
// it, so the digital twin and the harness are one code path.
class ExperimentRun {
 public:
  // Repairs carbon-feed dropouts, calibrates through `harness` (its cache
  // is shared), and builds the cluster plus the scheme's control state.
  ExperimentRun(ExperimentHarness* harness, const ExperimentConfig& config);
  // Neither copyable nor movable: the cluster and the control state point
  // into repaired_trace_.
  ExperimentRun(const ExperimentRun&) = delete;
  ExperimentRun& operator=(const ExperimentRun&) = delete;

  // ControlBoundaries(I, D), fixed at construction, so another thread may
  // walk the list while this run fires them.
  const std::vector<double>& boundaries() const { return boundaries_; }
  bool HasNextBoundary() const { return fired_ < boundaries_.size(); }

  // Advances the cluster to min(t, D) for the next boundary t when that is
  // ahead of the clock (an optimization invocation may overrun the
  // interval, since its evaluations advance simulated time), runs the
  // scheme's control step (CLOVER/BLOVER: Controller::Step; ORACLE:
  // reselect; BASE/CO2OPT: none), and moves to the next boundary. Returns
  // min(t, D). Requires HasNextBoundary().
  double FireNextBoundary();

  // Fires the remaining boundaries and advances the cluster to D.
  void Finish();

  // The run's report (wall_seconds is the caller's). Requires Finish().
  RunReport Report() const;

  const ExperimentConfig& config() const { return config_; }
  const BaselineCalibration& calibration() const { return calibration_; }
  const sim::ClusterSim& sim() const { return *sim_; }
  double duration_s() const { return duration_s_; }

 private:
  const ExperimentConfig config_;
  const double duration_s_;
  const std::vector<double> boundaries_;
  std::size_t fired_ = 0;  // boundaries fired so far
  // The dropout-repaired trace; the cluster and the control state read it.
  std::optional<carbon::CarbonTrace> repaired_trace_;
  BaselineCalibration calibration_;
  opt::ObjectiveParams params_;
  std::unique_ptr<sim::ClusterSim> sim_;
  std::unique_ptr<Controller> controller_;  // CLOVER / BLOVER
  // ORACLE: reselects at zero reconfiguration cost when the intensity moved.
  Oracle* oracle_ = nullptr;
  std::optional<carbon::CarbonMonitor> oracle_monitor_;
  std::optional<graph::GraphMapper> oracle_mapper_;
  bool finished_ = false;
};

}  // namespace clover::core
