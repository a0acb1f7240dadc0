// Mean-field (fluid) fidelity tier of the Clover simulator.
//
// The repo's fidelity ladder has three rungs:
//
//   1. opt/surrogate.h     — closed-form steady state of one configuration
//                            at one rate; no dynamics at all.
//   2. sim/meanfield.h     — THIS TIER. Aggregate (fluid) dynamics: offered
//                            load, backlog mass, per-class busy fractions
//                            and energy/carbon integrals advance window by
//                            window with deterministic arithmetic — no
//                            events, no RNG. A 1000-region campaign cell
//                            that would take hours of discrete-event
//                            simulation completes in seconds. Fleet regions
//                            run on it through fleet::Region's backend
//                            seam (fleet/meanfield_fleet.h).
//   3. sim/cluster_sim.h   — full discrete-event simulation, request by
//                            request (parallel across regions in
//                            fleet::RunFleet).
//
// The fluid model collapses a Deployment into server classes — distinct
// (service time, dynamic watts, accuracy) triples with a multiplicity,
// sim/queueing.h — and per control window advances:
//
//   offered  = rate * dt + backlog                       (mass, requests)
//   serve_i  = min(remaining, count_i * dt / service_i)  (accuracy-greedy
//              cascade, same dispatch order as the simulator)
//   backlog' = offered - sum_i serve_i
//   energy  += static_floor + sum_i serve_i * service_i * watts_i
//
// and reports the same WindowRecord series as ClusterSim: counters are the
// integerized mass deltas, energy/carbon go through the identical
// CarbonAccountant, and window latencies come from the queueing recipe the
// surrogate screen (opt/surrogate.h) also calls (sim/queueing.h: the
// cascade's service mix at the window's served mass, the aggregate M/M/c
// at its mean offered rate), or from a backlog-drain term when the window
// is overloaded. tests/meanfield_test.cc bounds the error against the
// discrete-event tier over the differential (c, rho) grid.
//
// The M/M/c terms are a pure function of (lambda, mu, c, service model),
// so window closes look them up in an exact-key cache (MmcTailCache,
// sim/queueing.h). A standalone simulator owns one; the fluid fleet lends
// each region step its fan-out slot's cache, so regions the router gives
// the same rate — every full region of one preset gets the same bits —
// share one Erlang C evaluation per rebalance instead of one each. A window
// close allocates nothing: the class split lands in storage sized at
// construction. It reads the carbon trace once per window, when the window
// opens; the fleet's snapshot of a fluid region reuses that reading. The
// run-level histogram takes each window's two synthetic masses through a
// pending (bin, count) run per value, so a region held at one rate touches
// its histogram only when a value changes bin.
//
// What this tier does NOT model: per-request jitter (latency quantiles are
// analytic, not sampled — max_ms is reported as p95), reconfiguration
// drains, faults and bursts (construction rejects them). Consumers that
// need those fall back to rung 3.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "carbon/accountant.h"
#include "carbon/trace.h"
#include "common/quantile.h"
#include "models/zoo.h"
#include "serving/deployment.h"
#include "sim/cluster_sim.h"
#include "sim/metrics.h"
#include "sim/queueing.h"

namespace clover::sim {

class MeanFieldSim {
 public:
  // Collapses `initial` into server classes (sim/queueing.h) and starts the
  // fluid clock at 0. `trace` must outlive the simulator. Faults and bursts in
  // `options` are rejected (CheckError) — the fluid tier does not model
  // them.
  MeanFieldSim(const serving::Deployment& initial, const models::ModelZoo& zoo,
               const carbon::CarbonTrace* trace, const SimOptions& options);

  // Advances fluid time to `t` (>= now()), integrating piecewise between
  // window edges and closing a WindowRecord at each edge. Window latencies
  // come through `tails`, or through the simulator's own cache when none is
  // lent; the choice changes only time.
  void AdvanceTo(double t);
  void AdvanceTo(double t, MmcTailCache* tails);

  // Re-routes the offered stream from now() onward (fleet router hook;
  // mirrors ClusterSim::SetArrivalRate).
  void SetArrivalRate(double qps);

  double now() const { return now_; }
  // Start of the open window and the carbon intensity read when it opened
  // (the trace at window_start_s()).
  double window_start_s() const { return window_start_; }
  double window_ci() const { return window_ci_; }
  int num_gpus() const { return num_gpus_; }
  double arrival_rate_qps() const { return rate_qps_; }
  // Aggregate service capacity of the collapsed classes, requests/second.
  double capacity_qps() const { return fleet_.capacity_qps; }
  // Un-served request mass carried into the next instant (the fluid
  // analogue of ClusterSim::queue_depth()).
  double backlog() const { return backlog_; }

  // Closed windows so far (since the last TakeWindows, if any).
  const std::vector<WindowRecord>& windows() const { return windows_; }
  // Appends the windows closed since the last call to `out` and forgets
  // them, keeping their storage (mirrors ClusterSim::TakeWindows).
  void TakeWindows(std::vector<WindowRecord>* out) {
    out->insert(out->end(), windows_.begin(), windows_.end());
    windows_.clear();
  }
  // Fluid window updates processed (the "sim_events" analogue for
  // throughput accounting; one per closed window).
  std::uint64_t steps() const { return steps_; }
  // M/M/c evaluations of the simulator's own cache (its misses; a lent
  // cache counts its own).
  std::uint64_t mmc_evaluations() const {
    return own_tails_ ? own_tails_->evaluations() : 0;
  }

  // ClusterSim-shaped taps so report fills and the fleet aggregation treat
  // both tiers uniformly. Counters are floors of the cumulative masses.
  std::uint64_t total_arrivals() const;
  std::uint64_t total_completions() const;
  double total_busy_seconds() const { return total_busy_s_; }
  double total_energy_j() const { return total_energy_j_; }
  double total_carbon_g() const { return total_carbon_g_; }
  double OverallWeightedAccuracy() const;
  double OverallP95Ms() const { return latency_histogram().Quantile(0.95); }
  double OverallQuantileMs(double q) const {
    return latency_histogram().Quantile(q);
  }
  // Synthetic run-level distribution: per closed window, 95% of the
  // window's completions at its mean and 5% at its p95 (bin-resolution
  // approximation; what the fleet layer merges across regions). Reading it
  // flushes the pending runs (header comment), so like every member it
  // must not be called concurrently with another call on this simulator.
  const LogHistogramQuantile& latency_histogram() const;

 private:
  // Adds of one value stream held back while they land in one bin; bin
  // counts are integers, so flushing late leaves the histogram identical.
  struct PendingRun {
    double value = 0.0;  // any value in `bin`
    std::size_t bin = 0;
    std::uint64_t count = 0;
  };
  void AddToRun(PendingRun* run, double value, std::uint64_t count);
  // Adds the run to the histogram and empties the run.
  void FlushRun(PendingRun* run) const;
  // The run-level histogram, created on first use.
  LogHistogramQuantile& Histogram() const;

  // Integrates the fluid flows over [now_, end] (no window crossing).
  void Integrate(double end);
  void CloseWindow(MmcTailCache* tails);

  ServerClasses fleet_;
  std::vector<double> window_split_;  // per-class served mass, CloseWindow
  int num_gpus_ = 0;
  const carbon::CarbonTrace* trace_ = nullptr;
  SimOptions options_;
  carbon::CarbonAccountant accountant_;

  double rate_qps_ = 0.0;

  double now_ = 0.0;
  double window_start_ = 0.0;
  double window_ci_ = 0.0;  // the trace at window_start_
  double backlog_ = 0.0;

  // Cumulative masses (fractional requests) and their values at the last
  // window edge, for integerized per-window deltas.
  double arrival_mass_ = 0.0;
  double served_mass_ = 0.0;
  double accuracy_mass_ = 0.0;
  std::uint64_t window_edge_arrivals_ = 0;
  std::uint64_t window_edge_completions_ = 0;

  // Per-window integrals, reset at each edge.
  double window_dynamic_j_ = 0.0;
  double window_served_ = 0.0;
  double window_accuracy_mass_ = 0.0;
  double window_arrival_mass_ = 0.0;
  double window_backlog_integral_ = 0.0;  // time-integral of backlog mass

  double total_busy_s_ = 0.0;
  double total_energy_j_ = 0.0;
  double total_carbon_g_ = 0.0;

  // Created on the first advance without a lent cache.
  std::unique_ptr<MmcTailCache> own_tails_;

  std::uint64_t steps_ = 0;
  std::vector<WindowRecord> windows_;
  // The runs still to reach the histogram (mean, p95). The histogram is
  // created by the first flush: a fleet builds thousands of simulators in
  // a row, and a 4 KB histogram between two regions' hot members would put
  // each region's on pages of its own.
  mutable PendingRun mean_run_;
  mutable PendingRun tail_run_;
  mutable std::unique_ptr<LogHistogramQuantile> overall_latency_;
};

}  // namespace clover::sim
