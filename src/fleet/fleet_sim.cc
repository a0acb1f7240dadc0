#include "fleet/fleet_sim.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/quantile.h"
#include "common/units.h"
#include "fleet/meanfield_fleet.h"
#include "fleet/window_fold.h"
#include "obs/trace.h"
#include "perf/calibration.h"
#include "sim/arrivals.h"

namespace clover::fleet {
namespace {

// Fills the run totals of `fleet_report->fleet` from the regions and their
// filled reports: sums for counters, energy and carbon; completion-weighted
// accuracy; latency quantiles from the merged per-region distributions,
// each shifted by its network penalty.
void AggregateRegionTotals(const std::vector<std::unique_ptr<Region>>& regions,
                           FleetReport* fleet_report) {
  core::RunReport& fleet = fleet_report->fleet;
  LogHistogramQuantile merged_latency;
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
}

// What the control loop starts from: the shared calibration and objective,
// the global offered load, and one region per config entry.
struct FleetSetup {
  core::BaselineCalibration calibration;
  opt::ObjectiveParams params;
  double total_qps = 0.0;
  std::vector<std::unique_ptr<Region>> regions;
};

FleetSetup SetUpFleet(const FleetConfig& config, const models::ModelZoo& zoo,
                      Region::Backend backend,
                      core::ExperimentHarness* harness) {
  CLOVER_TRACE_SCOPE("fleet.setup");
  FleetSetup setup;
  // Shared SLA/baseline calibration, anchored on the first region's fleet
  // size (the paper's sizing rule; fleet regions are normally uniform). It
  // is the discrete-event BASE run on both tiers, so fluid fleets are
  // judged against the same yardstick. A caller's harness lends its cache.
  std::optional<core::ExperimentHarness> own_harness;
  if (harness == nullptr) harness = &own_harness.emplace(&zoo);
  CLOVER_CHECK_MSG(&harness->zoo() == &zoo,
                   "fleet harness calibrates over a different model zoo");
  setup.calibration =
      harness->Calibrate(config.app, config.regions[0].num_gpus,
                         /*utilization_target=*/0.75, std::nullopt,
                         config.seed);

  opt::ObjectiveParams& params = setup.params;
  params.lambda = config.lambda;
  params.a_base = setup.calibration.a_base;
  params.c_base_g = CarbonGrams(setup.calibration.energy_per_request_j,
                                config.ci_base, perf::kPue);
  params.l_tail_ms = setup.calibration.l_tail_ms;
  params.pue = perf::kPue;

  setup.total_qps = config.total_qps.value_or([&] {
    double total = 0.0;
    for (const RegionConfig& region : config.regions)
      total += sim::SizeArrivalRate(zoo, config.app, region.num_gpus,
                                    config.utilization_target);
    return total;
  }());
  CLOVER_CHECK(setup.total_qps > 0.0);

  // Regions: own trace per preset (the diurnal shapes shared between
  // replicas of a preset), BASE starting deployment, uniform bootstrap
  // split (the router takes over at t = 0).
  carbon::TraceGeneratorOptions trace_options;
  trace_options.duration_hours = config.duration_hours;
  trace_options.seed = config.seed + 41;  // independent of simulation streams
  std::vector<carbon::RegionPreset> presets;
  presets.reserve(config.regions.size());
  for (const RegionConfig& region_config : config.regions)
    presets.push_back(region_config.preset);
  std::vector<carbon::CarbonTrace> traces =
      carbon::GenerateRegionTraces(presets, trace_options);
  setup.regions.reserve(config.regions.size());
  for (std::size_t i = 0; i < config.regions.size(); ++i) {
    const RegionConfig& region_config = config.regions[i];
    sim::SimOptions sim_options;
    sim_options.arrival_rate_qps =
        setup.total_qps / static_cast<double>(config.regions.size());
    sim_options.window_seconds = config.control_interval_s;
    sim_options.seed = RegionSeed(config.seed, i);
    // Region-local faults: the simulator replays GPU fail-stops and flash
    // crowds; carbon-feed dropouts are repaired into the trace here (LOCF,
    // sim/fault_injector.h) so the whole regional pipeline sees the held
    // reading; RTT spikes are consumed by Region::LatencyPenaltyAt.
    sim_options.faults = region_config.faults;
    carbon::CarbonTrace trace = std::move(traces[i]);
    if (!region_config.faults.trace_dropouts.empty())
      trace = sim::ApplyTraceDropouts(trace,
                                      region_config.faults.trace_dropouts);
    setup.regions.push_back(std::make_unique<Region>(
        region_config, &zoo, std::move(trace),
        serving::MakeBase(config.app, region_config.num_gpus), sim_options,
        backend));
  }
  return setup;
}

// The fleet run over regions of one backend: set-up, the control loop and
// report assembly, shared by both fidelity tiers.
FleetReport RunFleetOn(const FleetConfig& config, const models::ModelZoo& zoo,
                       Region::Backend backend,
                       core::ExperimentHarness* harness) {
  CLOVER_CHECK_MSG(!config.regions.empty(), "fleet needs >= 1 region");
  CLOVER_CHECK(config.duration_hours > 0.0);
  CLOVER_CHECK(config.control_interval_s > 0.0);
  const auto wall_start = std::chrono::steady_clock::now();

  FleetSetup setup = SetUpFleet(config, zoo, backend, harness);
  const core::BaselineCalibration& calibration = setup.calibration;
  const opt::ObjectiveParams& params = setup.params;
  const double total_qps = setup.total_qps;
  std::vector<std::unique_ptr<Region>>& regions = setup.regions;

  std::unique_ptr<Router> router = MakeRouter(config.router);
  FleetControllerOptions controller_options;
  controller_options.scheme = config.scheme;
  controller_options.controller = config.controller;
  controller_options.router = config.router_options;
  if (controller_options.router.slo_budget_ms <= 0.0)
    controller_options.router.slo_budget_ms =
        config.slo_budget_factor * params.l_tail_ms;
  controller_options.threads = config.threads;
  controller_options.seed = config.seed;

  // Control loop: one fleet step per boundary; each region may overrun the
  // boundary while optimizing (simulated time spent on evaluations), so
  // steps only advance regions that are behind the target. Each region's
  // step ends by handing the windows it closed to the fold, which adds
  // them to the region's objective series and folds a window index once
  // every region has closed it.
  const double duration_s = HoursToSeconds(config.duration_hours);
  const std::vector<double> boundaries =
      core::ControlBoundaries(config.control_interval_s, duration_s);
  WindowFold fold(regions.size(), params, calibration.energy_per_request_j,
                  controller_options.router.slo_budget_ms, boundaries.size());
  FleetController fleet_controller(&regions, &fold, &zoo, router.get(),
                                   params, total_qps, controller_options);
  for (const double t : boundaries)
    fleet_controller.Step(std::min(t, duration_s));
  fleet_controller.Finish(duration_s);

  FleetReport fleet_report;
  fleet_report.router_name = router->name();
  fleet_report.total_qps = total_qps;
  fleet_report.slo_budget_ms = controller_options.router.slo_budget_ms;
  fleet_report.regions.resize(regions.size());

  // ---- Reports ----
  CLOVER_TRACE_SCOPE("fleet.report");
  fleet_report.weight_history = fleet_controller.TakeWeightHistory();

  const auto controller_snapshots = fleet_controller.ControllerSnapshots();
  std::vector<double> mean_weights(regions.size(), 0.0);
  for (const std::vector<double>& weights : fleet_report.weight_history)
    for (std::size_t i = 0; i < weights.size(); ++i)
      mean_weights[i] += weights[i];
  for (double& w : mean_weights)
    w /= static_cast<double>(fleet_report.weight_history.size());

  for (std::size_t i = 0; i < regions.size(); ++i) {
    RegionReport& region_report = fleet_report.regions[i];
    region_report.name = regions[i]->name();
    region_report.latency_penalty_ms = regions[i]->latency_penalty_ms();
    region_report.mean_weight = mean_weights[i];
    // Cluster-local: the totals the single-cluster harness reports, minus
    // the window series and the optimization bookkeeping the fleet
    // controller owns.
    core::RunReport& report = region_report.report;
    report.app = config.app;
    report.scheme = config.scheme;
    report.params = params;
    report.objective_series = fold.TakeRegionObjectiveSeries(i);
    regions[i]->FillTotals(&report);
    report.arrival_rate_qps = mean_weights[i] * total_qps;
    if (const core::Controller* controller = fleet_controller.controller(i)) {
      report.optimizations = controller->history();
      report.optimization_seconds = controller->total_optimization_seconds();
      report.cache_hits = controller->cache_hits();
    }
    region_report.controller = controller_snapshots[i];
  }

  core::RunReport& fleet = fleet_report.fleet;
  fleet.app = config.app;
  fleet.scheme = config.scheme;
  fleet.arrival_rate_qps = total_qps;
  fleet.params = params;
  AggregateRegionTotals(regions, &fleet_report);
  fold.TakeSeries(&fleet);
  fleet_report.slo_attainment = fold.slo_attainment();
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

FleetReport RunFleet(const FleetConfig& config, const models::ModelZoo& zoo,
                     core::ExperimentHarness* harness) {
  return RunFleetOn(config, zoo, Region::Backend::kDiscreteEvent, harness);
}

FleetReport RunFleetMeanField(const FleetConfig& config,
                              const models::ModelZoo& zoo,
                              core::ExperimentHarness* harness) {
  CLOVER_CHECK_MSG(config.scheme == core::Scheme::kBase,
                   "mean-field fleet runs static schemes only (adaptive "
                   "schemes need the per-region controller, whose "
                   "evaluations are discrete-event runs)");
  for (const RegionConfig& region : config.regions)
    CLOVER_CHECK_MSG(region.faults.Empty(),
                     "mean-field fleet does not model region faults");
  return RunFleetOn(config, zoo, Region::Backend::kMeanField, harness);
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
