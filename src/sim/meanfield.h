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
// (service time, dynamic watts, accuracy) triples with a multiplicity —
// and per control window advances:
//
//   offered  = rate * dt + backlog                       (mass, requests)
//   serve_i  = min(remaining, count_i * dt / service_i)  (accuracy-greedy
//              cascade, same dispatch order as the simulator)
//   backlog' = offered - sum_i serve_i
//   energy  += static_floor + sum_i serve_i * service_i * watts_i
//
// and reports the same WindowRecord series as ClusterSim: counters are the
// integerized mass deltas, energy/carbon go through the identical
// CarbonAccountant, and window latencies come from the aggregate M/M/c
// oracles in sim/analytic.h using the same recipes as opt/surrogate.h
// (exact sojourn quantile for exponential service, the M/G/c two-moment
// correction for jittered service) plus a backlog-drain term when the
// window is overloaded. tests/meanfield_test.cc bounds the error against
// the discrete-event tier over the differential (c, rho) grid.
//
// The M/M/c terms depend on the window's mean offered rate alone (mu, c
// and the jitter sigma are fixed for the simulator's life), so a one-entry
// memo keyed on that exact rate reuses them: a fleet region the router
// holds at one rate — every region under the static and least-loaded
// splits — evaluates Erlang C once, not once per window. A miss runs it
// once, the metrics feeding the quantile.
//
// What this tier does NOT model: per-request jitter (latency quantiles are
// analytic, not sampled — max_ms is reported as p95), reconfiguration
// drains, faults and bursts (construction rejects them). Consumers that
// need those fall back to rung 3.
#pragma once

#include <cstdint>
#include <vector>

#include "carbon/accountant.h"
#include "carbon/trace.h"
#include "common/quantile.h"
#include "models/zoo.h"
#include "serving/deployment.h"
#include "sim/analytic.h"
#include "sim/cluster_sim.h"
#include "sim/metrics.h"

namespace clover::sim {

// One aggregate server class: `count` identical instances.
struct MeanFieldClass {
  double service_ms = 0.0;
  double dynamic_watts = 0.0;
  double accuracy = 0.0;
  int count = 0;
};

class MeanFieldSim {
 public:
  // Collapses `initial` into server classes (sorted accuracy-desc then
  // latency-asc — the simulator's dispatch order) and starts the fluid
  // clock at 0. `trace` must outlive the simulator. Faults and bursts in
  // `options` are rejected (CheckError) — the fluid tier does not model
  // them.
  MeanFieldSim(const serving::Deployment& initial, const models::ModelZoo& zoo,
               const carbon::CarbonTrace* trace, const SimOptions& options);

  // Advances fluid time to `t` (>= now()), integrating piecewise between
  // window edges and closing a WindowRecord at each edge.
  void AdvanceTo(double t);

  // Re-routes the offered stream from now() onward (fleet router hook;
  // mirrors ClusterSim::SetArrivalRate).
  void SetArrivalRate(double qps);

  double now() const { return now_; }
  int num_gpus() const { return num_gpus_; }
  double arrival_rate_qps() const { return rate_qps_; }
  // Aggregate service capacity of the collapsed classes, requests/second.
  double capacity_qps() const { return total_rate_qps_; }
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
  // Windows whose M/M/c terms were evaluated rather than reused (memo
  // misses; see the header comment).
  std::uint64_t mmc_evaluations() const { return mmc_evaluations_; }

  // ClusterSim-shaped taps so report fills and the fleet aggregation treat
  // both tiers uniformly. Counters are floors of the cumulative masses.
  std::uint64_t total_arrivals() const;
  std::uint64_t total_completions() const;
  double total_busy_seconds() const { return total_busy_s_; }
  double total_energy_j() const { return total_energy_j_; }
  double total_carbon_g() const { return total_carbon_g_; }
  double OverallWeightedAccuracy() const;
  double OverallP95Ms() const { return overall_latency_.Quantile(0.95); }
  double OverallQuantileMs(double q) const {
    return overall_latency_.Quantile(q);
  }
  // Synthetic run-level distribution: per closed window, 95% of the
  // window's completions at its mean and 5% at its p95 (bin-resolution
  // approximation; what the fleet layer merges across regions).
  const LogHistogramQuantile& latency_histogram() const {
    return overall_latency_;
  }

 private:
  // Integrates the fluid flows over [now_, end] (no window crossing).
  void Integrate(double end);
  void CloseWindow();

  std::vector<MeanFieldClass> classes_;
  int num_gpus_ = 0;
  const carbon::CarbonTrace* trace_ = nullptr;
  SimOptions options_;
  carbon::CarbonAccountant accountant_;

  double total_rate_qps_ = 0.0;   // sum_i count_i / service_s_i
  int total_instances_ = 0;
  double rate_qps_ = 0.0;

  double now_ = 0.0;
  double window_start_ = 0.0;
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

  // The last evaluated M/M/c terms, keyed on the exact arrival rate.
  struct MmcMemo {
    double arrival_rate = -1.0;  // none yet (real rates are > 0)
    analytic::MmcMetrics metrics;
    double p95_s = 0.0;  // sojourn (exponential) or wait (jittered) p95
  };
  MmcMemo mmc_memo_;
  std::uint64_t mmc_evaluations_ = 0;

  std::uint64_t steps_ = 0;
  std::vector<WindowRecord> windows_;
  LogHistogramQuantile overall_latency_;
};

}  // namespace clover::sim
