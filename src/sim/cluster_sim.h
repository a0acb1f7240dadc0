// Discrete-event simulator of the Clover serving cluster.
//
// Reproduces the paper's runtime (Fig. 5) in simulated time: a Poisson
// producer feeds a FIFO queue; the consumer hands the head of the queue to
// the highest-accuracy idle instance; each instance serves with the
// perf-model latency (plus per-request jitter); busy time is metered into
// energy and carbon window by window against the CI trace.
//
// Reconfigurations follow the production sequence: affected GPUs drain
// their in-flight requests, go offline for the repartition + model-load
// time, then come back; unaffected GPUs keep serving throughout, and
// arrivals continue to queue — so a bad candidate configuration hurts tail
// latency exactly as it would in the paper's testbed.
//
// The simulator is deterministic for a fixed (deployment schedule, seed)
// and processes tens of millions of requests per second of wall time, which
// is what makes 48-hour × 10-GPU × multi-scheme evaluations cheap.
#pragma once

#include <cstdint>
#include <vector>

#include "carbon/accountant.h"
#include "carbon/trace.h"
#include "common/arena.h"
#include "common/quantile.h"
#include "common/rng.h"
#include "perf/calibration.h"
#include "power/energy_meter.h"
#include "serving/deployment.h"
#include "serving/reconfig_planner.h"
#include "sim/arrivals.h"
#include "sim/event_queue.h"
#include "sim/fault_injector.h"
#include "sim/metrics.h"
#include "sim/request_queue.h"

namespace clover::sim {

// Service-time model per request.
enum class ServiceModel {
  // Truncated multiplicative Gaussian jitter around the perf-model latency
  // (the default; matches the paper's testbed variability).
  kJittered,
  // Exponential with the perf-model latency as mean. A uniform deployment
  // under this model is exactly an M/M/c queue, which is what lets
  // tests/sim_differential_test.cc check the simulator against the
  // closed-form oracles in sim/analytic.h.
  kExponential,
};

struct SimOptions {
  double arrival_rate_qps = 100.0;
  double window_seconds = 300.0;  // metrics/carbon accounting window
  std::uint64_t seed = 1;
  double service_jitter_sigma = perf::kServiceJitterSigma;
  double pue = perf::kPue;
  BurstOptions burst;  // default: steady Poisson arrivals
  ServiceModel service_model = ServiceModel::kJittered;
  // Adversarial events replayed during the run (sim/fault_injector.h).
  // ClusterSim consumes gpu_faults and flash_crowds; trace dropouts and RTT
  // spikes are applied by the harness/fleet layers before construction. An
  // empty schedule (the default) leaves the run bit-identical to a build
  // without fault support.
  FaultSchedule faults;
};

// Aggregate measured over a probe interval (one optimizer evaluation).
struct Measurement {
  std::uint64_t completions = 0;
  double duration_s = 0.0;
  double p95_ms = 0.0;
  double mean_ms = 0.0;
  double weighted_accuracy = 0.0;
  double energy_per_request_j = 0.0;  // IT energy incl. static share
  double throughput_qps = 0.0;
};

class ClusterSim {
 public:
  ClusterSim(serving::Deployment initial, const models::ModelZoo& zoo,
             const carbon::CarbonTrace* trace, const SimOptions& options);

  // Advances simulated time to `t`, processing arrivals, completions and
  // window closures. `t` must be >= now().
  void AdvanceTo(double t);

  // Reconfigures the cluster to `next` starting at now(): drains affected
  // GPUs, takes them offline for the plan's duration, swaps instances.
  // Returns the time at which every GPU is back online. The cost model is
  // overridable so the idealized ORACLE scheme can switch at zero cost.
  double ApplyDeployment(const serving::Deployment& next,
                         const mig::RepartitionCostModel& cost = {});

  // Advances by `duration_s` while recording a measurement probe.
  Measurement Measure(double duration_s);

  // Re-routes the offered stream: arrivals after now() are drawn at `qps`
  // (>= 0; 0 silences the stream until the next call). The fleet router
  // uses this to split one global workload across regional clusters with
  // time-varying weights; a plain run never calls it.
  void SetArrivalRate(double qps);

  double now() const { return now_; }
  const serving::Deployment& deployment() const { return deployment_; }
  const SimOptions& options() const { return options_; }
  std::size_t queue_depth() const { return queue_.size(); }
  int num_gpus() const { return deployment_.NumGpus(); }

  // Closed metrics windows so far (since the last TakeWindows, if any).
  const std::vector<WindowRecord>& windows() const { return windows_; }
  // Appends the windows closed since the last call to `out` and forgets
  // them, keeping their storage: a caller that folds windows as they close
  // (the fleet, one control interval at a time) leaves the simulator
  // holding no series and allocating nothing per hand-off.
  void TakeWindows(std::vector<WindowRecord>* out) {
    out->insert(out->end(), windows_.begin(), windows_.end());
    windows_.clear();
  }

  // Run totals (across all time, including partially open windows for
  // counters; energy/carbon totals include only closed windows).
  std::uint64_t total_arrivals() const { return total_arrivals_; }
  std::uint64_t total_completions() const { return total_completions_; }
  double total_accuracy_sum() const { return total_accuracy_sum_; }
  // Differential-verification taps (sim/analytic.h): busy time credited at
  // dispatch (utilization = busy / (instances * span)), queueing delay and
  // the count of requests that had to wait, both credited at service start.
  double total_busy_seconds() const { return total_busy_s_; }
  double total_wait_seconds() const { return total_wait_s_; }
  std::uint64_t total_service_starts() const { return total_starts_; }
  std::uint64_t total_waited() const { return total_waited_; }
  // Fault-injection state: fraction of GPUs outside an active fault window
  // (1.0 when no fault is in force). The fleet layer derates a region's
  // nominal capacity by this factor so the router reroutes around partial
  // failures.
  int num_failed_gpus() const;
  double OnlineGpuFraction() const;
  // Instances currently serving a request. With queue_depth() this closes
  // the conservation identity the fault tests assert:
  // arrivals == completions + queue_depth + busy instances.
  int num_busy_instances() const;
  double total_energy_j() const { return accountant_.total_it_joules(); }
  double total_carbon_g() const { return accountant_.total_grams(); }
  double OverallP95Ms() const { return overall_latency_.Quantile(0.95); }
  // Any run-level latency quantile (q in [0,1]); the bench harness reports
  // p50/p99 alongside the SLA-relevant p95.
  double OverallQuantileMs(double q) const {
    return overall_latency_.Quantile(q);
  }
  double OverallWeightedAccuracy() const {
    return total_completions_
               ? total_accuracy_sum_ / static_cast<double>(total_completions_)
               : 0.0;
  }
  // Run-level latency distribution; the fleet layer merges these across
  // regions (shifted by each region's network penalty) for fleet-wide
  // quantiles.
  const LogHistogramQuantile& latency_histogram() const {
    return overall_latency_;
  }

 private:
  struct SimInstance {
    std::int32_t id = 0;
    int gpu_index = 0;
    double base_service_ms = 0.0;
    double dynamic_watts = 0.0;
    double accuracy = 0.0;
    double online_at = 0.0;
    bool busy = false;
    bool draining = false;  // excluded from dispatch during reconfiguration
    // In-flight request bookkeeping, needed to retry and refund the request
    // when the hosting GPU fail-stops mid-service.
    double service_enqueue_time = 0.0;
    double service_end_s = 0.0;
  };

  // One edge of a fault window (sim/fault_injector.h), pre-sorted by time.
  struct FaultTransition {
    double time = 0.0;
    enum class Kind : std::uint8_t { kGpuDown, kGpuUp, kCrowdOn, kCrowdOff };
    Kind kind = Kind::kGpuDown;
    int gpu_index = 0;          // kGpuDown / kGpuUp
    double multiplier = 1.0;    // kCrowdOn / kCrowdOff
  };

  static constexpr std::size_t kMaxInstances = 128;

  void BuildInstances(const serving::Deployment& deployment,
                      const std::vector<double>& online_at_per_gpu);
  void RebuildDispatchOrder();
  void RefreshAvailability();

  // Event processing.
  void CloseWindow();
  void HandleArrival(double t);
  void HandleCompletion(const Event& event);
  void HandleWake(double t);
  void StartService(std::size_t position, double enqueue_time);
  void TryDispatchQueue();

  // Fault machinery (no-ops when options_.faults is empty).
  void BuildFaultTransitions();
  double NextFaultTime() const;
  void ApplyFaultTransition(const FaultTransition& transition);
  void FailGpu(int gpu_index);
  void RecoverGpu(int gpu_index);
  // Re-applies base rate x active flash-crowd multipliers from now().
  void ApplyEffectiveArrivalRate();
  bool GpuFaulted(int gpu_index) const {
    return !gpu_fault_depth_.empty() &&
           gpu_fault_depth_[static_cast<std::size_t>(gpu_index)] > 0;
  }

  // Availability bitmask over dispatch positions.
  int FirstAvailablePosition() const;
  void SetAvailable(std::size_t position);
  void ClearAvailable(std::size_t position);

  models::ModelZoo const* zoo_;
  const carbon::CarbonTrace* trace_;
  SimOptions options_;
  serving::Deployment deployment_;

  std::vector<SimInstance> instances_;
  std::vector<std::int32_t> id_to_index_;
  std::vector<std::size_t> dispatch_order_;    // positions -> instance index
  std::vector<std::size_t> index_to_position_;  // instance index -> position
  std::uint64_t avail_[2] = {0, 0};
  std::int32_t next_id_ = 0;

  EventQueue events_;
  RequestQueue queue_;  // enqueue times of waiting requests (flat ring)
  PoissonArrivals arrivals_;
  double pending_arrival_ = 0.0;
  RngStream jitter_rng_;

  // Fault state. `base_rate_qps_` is the rate the owner asked for (initial
  // or SetArrivalRate); the arrival process runs at base x crowd multiplier.
  std::vector<FaultTransition> fault_transitions_;
  std::size_t next_fault_ = 0;
  std::vector<int> gpu_fault_depth_;  // active fault windows per GPU
  std::vector<double> active_crowds_;  // multipliers currently in force
  double base_rate_qps_ = 0.0;
  std::uint64_t cancelled_completions_ = 0;  // stale events to swallow

  double now_ = 0.0;
  double window_start_ = 0.0;
  // Bump arena for transients whose lifetime never crosses a window edge
  // (fault retry batches, reconfiguration masks); Reset in CloseWindow.
  Arena arena_;
  WindowAccumulator window_acc_;
  std::vector<WindowRecord> windows_;
  power::EnergyMeter meter_;
  carbon::CarbonAccountant accountant_;

  std::uint64_t total_arrivals_ = 0;
  std::uint64_t total_completions_ = 0;
  double total_accuracy_sum_ = 0.0;
  double total_busy_s_ = 0.0;
  double total_wait_s_ = 0.0;
  std::uint64_t total_starts_ = 0;
  std::uint64_t total_waited_ = 0;
  LogHistogramQuantile overall_latency_;

  bool probe_active_ = false;
  WindowAccumulator probe_acc_;
  double probe_dynamic_j_ = 0.0;
};

}  // namespace clover::sim
