// One regional cluster of the geo-distributed fleet.
//
// A Region bundles what the paper's single-cluster pipeline keeps global:
// a simulator, the region's own carbon-intensity trace, its fleet size, and
// the network latency penalty from the global ingress. The simulator is one
// of two backends — the discrete-event sim::ClusterSim (the reference tier)
// or the fluid sim::MeanFieldSim (planet-scale campaigns) — behind the one
// seam the fleet loop drives: now / AdvanceTo / SetAssignedRate / Snapshot /
// TakeClosedWindows / FillTotals / latency_histogram. The fleet controller
// steps regions independently (they share no mutable state), and the
// router decides how much of the global stream each region is offered.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "carbon/trace.h"
#include "carbon/trace_generator.h"
#include "common/quantile.h"
#include "core/harness.h"
#include "fleet/router.h"
#include "models/zoo.h"
#include "serving/deployment.h"
#include "sim/cluster_sim.h"
#include "sim/meanfield.h"

namespace clover::fleet {

struct RegionConfig {
  // Trace shape: a named preset (carbon::FindRegionPreset) or a custom one.
  carbon::RegionPreset preset;
  int num_gpus = 4;
  double latency_penalty_ms = 0.0;  // network RTT global ingress -> region
  double static_weight = 1.0;       // prior for the static split
  // Scheduled ingress outage [start_s, end_s): the router must route around
  // the region while its cluster drains in-flight work. end <= start = none.
  double outage_start_s = 0.0;
  double outage_end_s = 0.0;
  // Region-local fault schedule (sim/fault_injector.h): GPU fail-stops and
  // flash crowds replay inside the region's simulator; trace dropouts are
  // repaired into the region's trace before construction; RTT spikes raise
  // the ingress penalty the router (and the per-window fleet latency
  // aggregation) sees while active. Composes with the scheduled outage.
  sim::FaultSchedule faults;

  bool HasOutage() const { return outage_end_s > outage_start_s; }
};

// Derives the per-region seed from the fleet seed: every region gets
// statistically independent arrival/jitter/search streams while the fleet
// run stays reproducible from one number.
std::uint64_t RegionSeed(std::uint64_t fleet_seed, std::size_t region_index);

// Owns the trace and the simulator (the simulator keeps a pointer into the
// trace), so regions are pinned to the heap — no copy, no move.
class Region {
 public:
  enum class Backend { kDiscreteEvent, kMeanField };

  Region(const RegionConfig& config, const models::ModelZoo* zoo,
         carbon::CarbonTrace trace, serving::Deployment initial,
         const sim::SimOptions& sim_options, Backend backend);
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  const std::string& name() const { return config_.preset.name; }
  const carbon::CarbonTrace& trace() const { return trace_; }
  // The discrete-event simulator, for the per-region controller that
  // optimizes it. CheckError on a mean-field region.
  sim::ClusterSim& sim();
  int num_gpus() const { return config_.num_gpus; }
  double latency_penalty_ms() const { return config_.latency_penalty_ms; }
  // Base penalty plus any RTT spike active at `t`.
  double LatencyPenaltyAt(double t) const;

  bool OnlineAt(double t) const {
    return !config_.HasOutage() || t < config_.outage_start_s ||
           t >= config_.outage_end_s;
  }

  double now() const;
  // `tails` (fluid regions only; nullptr = the simulator's own) lends the
  // cache the window latencies go through (sim::MmcTailCache).
  void AdvanceTo(double t, sim::MmcTailCache* tails = nullptr);

  double assigned_qps() const { return assigned_qps_; }
  // Offers `qps` of the global stream to this region from now() onward.
  void SetAssignedRate(double qps);

  // Router-visible state at control time `t`. A fluid region snapshot at
  // the start of its open window reuses the reading the window took.
  RegionSnapshot Snapshot(double t) const;

  // Appends the windows the simulator closed since the last hand-off to
  // `out` (sim::ClusterSim::TakeWindows); the region keeps none of them.
  void TakeClosedWindows(std::vector<sim::WindowRecord>* out);
  // The run totals and overall quantiles of the region's cluster-local
  // report (core::FillRunTotalsFromSim).
  void FillTotals(core::RunReport* report) const;
  // Run-level latency distribution, excluding the network penalty.
  const LogHistogramQuantile& latency_histogram() const;

 private:
  RegionConfig config_;
  const models::ModelZoo* zoo_;
  carbon::CarbonTrace trace_;
  // Exactly one backend is set.
  std::unique_ptr<sim::ClusterSim> cluster_;
  std::unique_ptr<sim::MeanFieldSim> fluid_;
  double assigned_qps_ = 0.0;
};

}  // namespace clover::fleet
