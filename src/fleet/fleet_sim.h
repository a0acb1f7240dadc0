// Fleet-level experiment driver: one global workload served by N regional
// clusters under a routing policy.
//
// RunFleet is the multi-region analog of core::ExperimentHarness::Run:
// it calibrates the shared SLA the way the paper does (BASE at the sizing
// utilization), builds one Region per config entry (each with its own
// carbon trace from the region preset), drives the control loop — regions
// stepped in parallel, router rebalanced every control interval, each
// interval's windows folded at the barrier (fleet/window_fold.h) — and
// aggregates per-region results into a fleet-level core::RunReport whose
// latency metrics include each region's network penalty. RunFleetMeanField
// (fleet/meanfield_fleet.h) is the same run over fluid regions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/harness.h"
#include "core/schemes.h"
#include "fleet/fleet_controller.h"
#include "fleet/region.h"
#include "fleet/router.h"
#include "models/zoo.h"

namespace clover::fleet {

struct FleetConfig {
  models::Application app = models::Application::kClassification;
  std::vector<RegionConfig> regions;
  double duration_hours = 6.0;
  double control_interval_s = 300.0;  // also the rebalance interval
  core::Scheme scheme = core::Scheme::kClover;
  RouterPolicy router = RouterPolicy::kCarbonGreedy;
  RouterOptions router_options;  // slo_budget_ms 0 -> derived from the SLA
  // Global offered load; defaults to the per-region sizing rule summed at
  // `utilization_target`. Fleets are normally provisioned with failover
  // headroom, so the default target sits below the paper's single-cluster
  // 75% — headroom is also what gives the router room to arbitrage.
  std::optional<double> total_qps;
  double utilization_target = 0.55;
  double lambda = 0.5;   // objective weight for the per-region controllers
  double ci_base = 250.0;
  // Fleet SLO budget = slo_budget_factor * calibrated SLA when
  // router_options.slo_budget_ms is unset.
  double slo_budget_factor = 1.25;
  std::uint64_t seed = 1;
  int threads = 1;
  core::Controller::Options controller;
};

struct RegionReport {
  std::string name;
  double latency_penalty_ms = 0.0;
  double mean_weight = 0.0;  // average routed share across rebalances
  // Cluster-local metrics (latencies exclude the network penalty): run
  // totals, quantiles and the objective series, one entry per window the
  // region closed. No window series: the fleet folds each window as the
  // region hands it over at a control barrier, so `report.windows` stays
  // empty.
  core::RunReport report;
  std::optional<core::ControllerSnapshot> controller;
};

struct FleetReport {
  std::string router_name;
  double total_qps = 0.0;
  double slo_budget_ms = 0.0;
  // Fraction of aggregated fleet windows (with completions) whose p95 —
  // network penalty included — met the SLO budget.
  double slo_attainment = 0.0;
  // Aggregate over regions: sums for counters/energy/carbon, completion-
  // weighted accuracy, latency quantiles from the merged per-region
  // distributions shifted by each region's network penalty, and the folded
  // window and objective series (one entry per window index every region
  // closed).
  core::RunReport fleet;
  std::vector<RegionReport> regions;
  // One entry per rebalance (index 0 = initial split at t = 0).
  std::vector<std::vector<double>> weight_history;
};

// `harness`, when given, lends its calibration cache (a campaign slot's, so
// cells that share the slot calibrate once); it must calibrate over `zoo`.
// Results do not depend on it: calibration is deterministic per setting.
FleetReport RunFleet(const FleetConfig& config, const models::ModelZoo& zoo,
                     core::ExperimentHarness* harness = nullptr);

// Bit-identity predicate for the fleet determinism contract: every counter,
// total, quantile and routing weight equal across the two reports. Thread
// count must never change results (tests/fleet_test.cc sweeps 1/2/8).
bool FleetReportsBitIdentical(const FleetReport& a, const FleetReport& b);

// Region configs from named presets (carbon::NamedRegionPresets) with a
// simple listing-order network penalty: 5 ms for the first region (the
// ingress's home), +15 ms per hop after it. Throws on unknown names.
std::vector<RegionConfig> RegionsFromPresets(
    const std::vector<std::string>& names, int gpus_per_region);

}  // namespace clover::fleet
