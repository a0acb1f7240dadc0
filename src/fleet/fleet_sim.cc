#include "fleet/fleet_sim.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/quantile.h"
#include "common/units.h"
#include "fleet/meanfield_fleet.h"
#include "perf/calibration.h"
#include "sim/arrivals.h"

namespace clover::fleet {
namespace {

// Fills `fleet_report->fleet` (counter/energy/carbon sums, completion-
// weighted accuracy, merged latency quantiles, index-aligned per-window
// series, objective series) and `fleet_report->slo_attainment` from the
// regions and their filled reports.
void AggregateRegions(const std::vector<std::unique_ptr<Region>>& regions,
                      const opt::ObjectiveParams& params,
                      double fallback_energy_per_request_j,
                      FleetReport* fleet_report) {
  core::RunReport& fleet = fleet_report->fleet;
  LogHistogramQuantile merged_latency;
  std::size_t window_count = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const core::RunReport& region = fleet_report->regions[i].report;
    fleet.arrivals += region.arrivals;
    fleet.completions += region.completions;
    fleet.total_energy_j += region.total_energy_j;
    fleet.total_carbon_g += region.total_carbon_g;
    fleet.weighted_accuracy +=
        region.weighted_accuracy * static_cast<double>(region.completions);
    fleet.sim_events += region.sim_events;
    fleet.optimization_seconds += region.optimization_seconds;
    merged_latency.MergeShifted(regions[i]->latency_histogram(),
                                regions[i]->latency_penalty_ms());
    window_count = std::min(window_count, region.windows.size());
  }
  fleet.weighted_accuracy =
      fleet.completions
          ? fleet.weighted_accuracy / static_cast<double>(fleet.completions)
          : 0.0;
  fleet.carbon_per_request_g =
      fleet.completions
          ? fleet.total_carbon_g / static_cast<double>(fleet.completions)
          : 0.0;
  fleet.overall_p50_ms = merged_latency.Quantile(0.50);
  fleet.overall_p95_ms = merged_latency.Quantile(0.95);
  fleet.overall_p99_ms = merged_latency.Quantile(0.99);

  // Fleet windows: index-aligned aggregation (regions close windows on the
  // same control-interval boundaries). The window p95 approximates the
  // merged distribution by one point mass per region at its p95 (plus its
  // network penalty): walking the masses from slowest down, the 95th
  // percentile is the first value with more than 5% of the completions at
  // or above it. This handles both failure modes of simpler rules — a
  // 3-request region cannot claim the fleet tail (a plain max would), yet
  // several small slow regions whose combined mass straddles the 95% rank
  // still do. max_ms stays the true maximum.
  std::uint64_t slo_windows = 0, counted_windows = 0;
  std::vector<std::pair<double, std::uint64_t>> tail_masses;  // (value, n)
  for (std::size_t w = 0; w < window_count; ++w) {
    sim::WindowRecord window;
    double mean_weighted = 0.0, accuracy_weighted = 0.0, ci_energy = 0.0;
    tail_masses.clear();
    for (std::size_t i = 0; i < regions.size(); ++i) {
      const sim::WindowRecord& region_window =
          fleet_report->regions[i].report.windows[w];
      // Penalty as of this window's start: an active RTT spike shifts the
      // window's latency contribution (the run-level merged histogram keeps
      // the base penalty — spikes are windowed events, run quantiles are a
      // whole-run summary).
      const double penalty =
          regions[i]->LatencyPenaltyAt(region_window.start_s);
      window.start_s = region_window.start_s;
      window.duration_s = region_window.duration_s;
      window.arrivals += region_window.arrivals;
      window.completions += region_window.completions;
      window.energy_j += region_window.energy_j;
      window.carbon_g += region_window.carbon_g;
      if (region_window.completions > 0) {
        tail_masses.emplace_back(region_window.p95_ms + penalty,
                                 region_window.completions);
        window.max_ms = std::max(window.max_ms,
                                 region_window.max_ms + penalty);
        mean_weighted += (region_window.mean_ms + penalty) *
                         static_cast<double>(region_window.completions);
        accuracy_weighted += region_window.weighted_accuracy *
                             static_cast<double>(region_window.completions);
      }
      ci_energy += region_window.ci * region_window.energy_j;
    }
    std::sort(tail_masses.begin(), tail_masses.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::uint64_t mass_above = 0;
    for (const auto& [value, count] : tail_masses) {
      mass_above += count;
      if (static_cast<double>(mass_above) >
          0.05 * static_cast<double>(window.completions)) {
        window.p95_ms = value;
        break;
      }
    }
    window.mean_ms = window.completions
                         ? mean_weighted /
                               static_cast<double>(window.completions)
                         : 0.0;
    window.weighted_accuracy =
        window.completions ? accuracy_weighted /
                                 static_cast<double>(window.completions)
                           : 0.0;
    // Blended intensity: energy-weighted mean over regions.
    window.ci = window.energy_j > 0.0 ? ci_energy / window.energy_j : 0.0;
    if (window.completions > 0) {
      ++counted_windows;
      if (window.p95_ms <= fleet_report->slo_budget_ms) ++slo_windows;
    }
    fleet.windows.push_back(window);

    opt::EvalMetrics metrics;
    metrics.accuracy = window.weighted_accuracy;
    metrics.energy_per_request_j =
        window.completions
            ? window.energy_j / static_cast<double>(window.completions)
            : fallback_energy_per_request_j;
    metrics.p95_ms = window.p95_ms;
    fleet.objective_series.push_back(
        opt::ObjectiveF(metrics, params, window.ci));
  }
  fleet_report->slo_attainment =
      counted_windows ? static_cast<double>(slo_windows) /
                            static_cast<double>(counted_windows)
                      : 0.0;
}

// The fleet run over regions of one backend: calibration, region setup,
// the control loop and report assembly, shared by both fidelity tiers.
FleetReport RunFleetOn(const FleetConfig& config, const models::ModelZoo& zoo,
                       Region::Backend backend) {
  CLOVER_CHECK_MSG(!config.regions.empty(), "fleet needs >= 1 region");
  CLOVER_CHECK(config.duration_hours > 0.0);
  CLOVER_CHECK(config.control_interval_s > 0.0);
  const auto wall_start = std::chrono::steady_clock::now();

  // Shared SLA/baseline calibration, anchored on the first region's fleet
  // size (the paper's sizing rule; fleet regions are normally uniform). It
  // is the discrete-event BASE run on both tiers, so fluid fleets are
  // judged against the same yardstick.
  core::ExperimentHarness harness(&zoo);
  const core::BaselineCalibration& calibration =
      harness.Calibrate(config.app, config.regions[0].num_gpus,
                        /*utilization_target=*/0.75, std::nullopt,
                        config.seed);

  opt::ObjectiveParams params;
  params.lambda = config.lambda;
  params.a_base = calibration.a_base;
  params.c_base_g = CarbonGrams(calibration.energy_per_request_j,
                                config.ci_base, perf::kPue);
  params.l_tail_ms = calibration.l_tail_ms;
  params.pue = perf::kPue;

  const double total_qps = config.total_qps.value_or([&] {
    double total = 0.0;
    for (const RegionConfig& region : config.regions)
      total += sim::SizeArrivalRate(zoo, config.app, region.num_gpus,
                                    config.utilization_target);
    return total;
  }());
  CLOVER_CHECK(total_qps > 0.0);

  // Regions: own trace per preset, BASE starting deployment, uniform
  // bootstrap split (the router takes over at t = 0).
  std::vector<std::unique_ptr<Region>> regions;
  regions.reserve(config.regions.size());
  carbon::TraceGeneratorOptions trace_options;
  trace_options.duration_hours = config.duration_hours;
  trace_options.seed = config.seed + 41;  // independent of simulation streams
  for (std::size_t i = 0; i < config.regions.size(); ++i) {
    const RegionConfig& region_config = config.regions[i];
    sim::SimOptions sim_options;
    sim_options.arrival_rate_qps =
        total_qps / static_cast<double>(config.regions.size());
    sim_options.window_seconds = config.control_interval_s;
    sim_options.seed = RegionSeed(config.seed, i);
    // Region-local faults: the simulator replays GPU fail-stops and flash
    // crowds; carbon-feed dropouts are repaired into the trace here (LOCF,
    // sim/fault_injector.h) so the whole regional pipeline sees the held
    // reading; RTT spikes are consumed by Region::LatencyPenaltyAt.
    sim_options.faults = region_config.faults;
    carbon::CarbonTrace trace =
        carbon::GenerateRegionTrace(region_config.preset, trace_options);
    if (!region_config.faults.trace_dropouts.empty())
      trace = sim::ApplyTraceDropouts(trace,
                                      region_config.faults.trace_dropouts);
    regions.push_back(std::make_unique<Region>(
        region_config, &zoo, std::move(trace),
        serving::MakeBase(config.app, region_config.num_gpus), sim_options,
        backend));
  }

  std::unique_ptr<Router> router = MakeRouter(config.router);
  FleetControllerOptions controller_options;
  controller_options.scheme = config.scheme;
  controller_options.controller = config.controller;
  controller_options.router = config.router_options;
  if (controller_options.router.slo_budget_ms <= 0.0)
    controller_options.router.slo_budget_ms =
        config.slo_budget_factor * params.l_tail_ms;
  controller_options.threads = config.threads;
  controller_options.share_eval_cache = config.share_eval_cache;
  controller_options.seed = config.seed;
  FleetController fleet_controller(&regions, &zoo, router.get(), params,
                                   total_qps, controller_options);

  // Control loop: one fleet step per interval; each region may overrun the
  // boundary while optimizing (simulated time spent on evaluations), so
  // steps only advance regions that are behind the target.
  const double duration_s = HoursToSeconds(config.duration_hours);
  for (double t = config.control_interval_s; t <= duration_s + 1e-9;
       t += config.control_interval_s)
    fleet_controller.Step(std::min(t, duration_s));
  for (auto& region : regions)
    if (duration_s > region->now()) region->AdvanceTo(duration_s);

  // ---- Reports ----
  FleetReport fleet_report;
  fleet_report.router_name = router->name();
  fleet_report.total_qps = total_qps;
  fleet_report.slo_budget_ms = controller_options.router.slo_budget_ms;
  fleet_report.weight_history = fleet_controller.TakeWeightHistory();

  const auto controller_snapshots = fleet_controller.ControllerSnapshots();
  std::vector<double> mean_weights(regions.size(), 0.0);
  for (const std::vector<double>& weights : fleet_report.weight_history)
    for (std::size_t i = 0; i < weights.size(); ++i)
      mean_weights[i] += weights[i];
  for (double& w : mean_weights)
    w /= static_cast<double>(fleet_report.weight_history.size());

  for (std::size_t i = 0; i < regions.size(); ++i) {
    RegionReport region_report;
    region_report.name = regions[i]->name();
    region_report.latency_penalty_ms = regions[i]->latency_penalty_ms();
    region_report.mean_weight = mean_weights[i];
    // Cluster-local: the same tail the single-cluster harness assembles,
    // minus the optimization bookkeeping the fleet controller owns.
    core::RunReport& report = region_report.report;
    report.app = config.app;
    report.scheme = config.scheme;
    report.params = params;
    regions[i]->FillReport(params, calibration.energy_per_request_j, &report);
    report.arrival_rate_qps = mean_weights[i] * total_qps;
    if (const core::Controller* controller = fleet_controller.controller(i)) {
      report.optimizations = controller->history();
      report.optimization_seconds = controller->total_optimization_seconds();
      // Store-scoped: with share_eval_cache this is the fleet-wide count
      // (every region reads the one shared store), same as the snapshot.
      report.cache_hits = controller->cache_hits();
    }
    region_report.controller = controller_snapshots[i];
    fleet_report.regions.push_back(std::move(region_report));
  }

  // Fleet aggregate: sums over regions; latency from the merged per-region
  // distributions, each shifted by its network penalty.
  core::RunReport& fleet = fleet_report.fleet;
  fleet.app = config.app;
  fleet.scheme = config.scheme;
  fleet.arrival_rate_qps = total_qps;
  fleet.params = params;
  AggregateRegions(regions, params, calibration.energy_per_request_j,
                   &fleet_report);
  // Not summed from the regions: with a shared store every controller
  // reports the store-wide counter, and summing would multiply it by N.
  fleet.cache_hits = fleet_controller.total_cache_hits();

  fleet.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return fleet_report;
}

}  // namespace

std::vector<RegionConfig> RegionsFromPresets(
    const std::vector<std::string>& names, int gpus_per_region) {
  CLOVER_CHECK(!names.empty());
  CLOVER_CHECK(gpus_per_region > 0);
  std::vector<RegionConfig> regions;
  regions.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const carbon::RegionPreset* preset = carbon::FindRegionPreset(names[i]);
    CLOVER_CHECK_MSG(preset != nullptr,
                     "unknown region preset '" << names[i] << "'");
    RegionConfig config;
    config.preset = *preset;
    config.num_gpus = gpus_per_region;
    config.latency_penalty_ms = 5.0 + 15.0 * static_cast<double>(i);
    regions.push_back(config);
  }
  return regions;
}

FleetReport RunFleet(const FleetConfig& config, const models::ModelZoo& zoo) {
  return RunFleetOn(config, zoo, Region::Backend::kDiscreteEvent);
}

FleetReport RunFleetMeanField(const FleetConfig& config,
                              const models::ModelZoo& zoo) {
  CLOVER_CHECK_MSG(config.scheme == core::Scheme::kBase,
                   "mean-field fleet runs static schemes only (adaptive "
                   "schemes need the per-region controller, whose "
                   "evaluations are discrete-event runs)");
  for (const RegionConfig& region : config.regions)
    CLOVER_CHECK_MSG(region.faults.Empty(),
                     "mean-field fleet does not model region faults");
  return RunFleetOn(config, zoo, Region::Backend::kMeanField);
}

bool FleetReportsBitIdentical(const FleetReport& a, const FleetReport& b) {
  if (a.regions.size() != b.regions.size()) return false;
  if (a.weight_history != b.weight_history) return false;
  if (a.slo_attainment != b.slo_attainment) return false;
  if (!core::RunReportsBitIdentical(a.fleet, b.fleet)) return false;
  for (std::size_t i = 0; i < a.regions.size(); ++i) {
    if (a.regions[i].name != b.regions[i].name) return false;
    if (a.regions[i].mean_weight != b.regions[i].mean_weight) return false;
    if (!core::RunReportsBitIdentical(a.regions[i].report,
                                      b.regions[i].report))
      return false;
  }
  return true;
}

}  // namespace clover::fleet
