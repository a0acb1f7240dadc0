// gtest-free part of the scenario runner (fixtures + execution), linkable
// by non-test binaries (bench/bench_runner). The gtest-dependent invariant
// checks live in scenario_checks.cc.
#include "testing/scenario.h"

#include "common/check.h"
#include "common/units.h"

namespace clover::testing {

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kFlat: return "flat";
    case TraceKind::kCisoMarch: return "ciso-march";
    case TraceKind::kEsoMarch: return "eso-march";
    case TraceKind::kStep: return "step";
  }
  return "unknown";
}

carbon::CarbonTrace MakeScenarioTrace(const Scenario& scenario) {
  switch (scenario.trace) {
    case TraceKind::kFlat:
      return FlatTrace(250.0, scenario.duration_hours);
    case TraceKind::kCisoMarch:
      return ProfileTrace(carbon::TraceProfile::kCisoMarch,
                          scenario.duration_hours, scenario.seed);
    case TraceKind::kEsoMarch:
      return ProfileTrace(carbon::TraceProfile::kEsoMarch,
                          scenario.duration_hours, scenario.seed);
    case TraceKind::kStep:
      return StepTrace(120.0, 320.0, /*period_hours=*/1.5,
                       scenario.duration_hours);
  }
  CLOVER_CHECK_MSG(false, "unreachable trace kind");
}

core::ExperimentConfig MakeConfig(const Scenario& scenario,
                                  core::Scheme scheme,
                                  const carbon::CarbonTrace* trace) {
  core::ExperimentConfig config;
  config.app = scenario.app;
  config.scheme = scheme;
  config.trace = trace;
  config.duration_hours = scenario.duration_hours;
  config.num_gpus = scenario.num_gpus;
  config.sizing_gpus = scenario.sizing_gpus;
  config.lambda = scenario.lambda;
  config.accuracy_limit_pct = scenario.accuracy_limit_pct;
  config.burst = scenario.burst;
  config.faults = scenario.faults;
  config.control_interval_s = scenario.control_interval_s;
  config.seed = scenario.seed;
  return config;
}

ScenarioRun RunScenario(core::ExperimentHarness& harness,
                        const Scenario& scenario,
                        const carbon::CarbonTrace& trace) {
  ScenarioRun run;
  run.base = harness.Run(MakeConfig(scenario, core::Scheme::kBase, &trace));
  run.clover =
      harness.Run(MakeConfig(scenario, core::Scheme::kClover, &trace));
  return run;
}

FleetScenario AntiCorrelatedFleetScenario() {
  FleetScenario scenario;
  scenario.name = "fleet_anti_correlated";
  // The named presets us-west and ap-northeast are the same grid profile
  // 12 h apart — the same pair bench_runner's fleet_routing uses.
  scenario.config.regions =
      fleet::RegionsFromPresets({"us-west", "ap-northeast"},
                                /*gpus_per_region=*/3);
  scenario.config.duration_hours = 24.0;
  scenario.config.scheme = core::Scheme::kBase;
  scenario.config.seed = 11;
  scenario.min_greedy_save_pct = 1.0;
  return scenario;
}

FleetScenario CorrelatedFleetScenario() {
  FleetScenario scenario;
  scenario.name = "fleet_correlated";
  scenario.config.regions =
      fleet::RegionsFromPresets({"us-west", "us-west"},
                                /*gpus_per_region=*/3);
  // Same profile, same phase; distinct names give the twin independent
  // weather (the trace stream is seeded per region name).
  scenario.config.regions[1].preset.name = "us-west-twin";
  scenario.config.duration_hours = 24.0;
  scenario.config.scheme = core::Scheme::kBase;
  scenario.config.seed = 11;
  // Nothing to arbitrage beyond weather noise: greedy must at least not
  // emit more than static.
  scenario.min_greedy_save_pct = -0.25;
  return scenario;
}

FleetScenario OutageFleetScenario() {
  FleetScenario scenario;
  scenario.name = "fleet_outage";
  scenario.config.regions = fleet::RegionsFromPresets(
      {"us-west", "eu-west", "ap-northeast"}, /*gpus_per_region=*/3);
  // eu-west drops out of rotation for 90 minutes mid-run; the two
  // survivors must absorb its share within their capacity margins.
  scenario.config.regions[1].outage_start_s = HoursToSeconds(2.0);
  scenario.config.regions[1].outage_end_s = HoursToSeconds(3.5);
  scenario.config.duration_hours = 8.0;
  scenario.config.scheme = core::Scheme::kBase;
  // Failover headroom: each survivor must be able to carry half the fleet.
  scenario.config.utilization_target = 0.45;
  // Three-region geo spread: the fleet SLO must leave room for the
  // farthest region's RTT on top of the cluster tail (BASE regions do not
  // downshift to faster variants the way CLOVER regions do).
  scenario.config.slo_budget_factor = 1.5;
  scenario.config.seed = 11;
  scenario.min_greedy_save_pct = -0.25;  // outage dominates; no save floor
  return scenario;
}

FleetScenarioRun RunFleetScenario(const FleetScenario& scenario) {
  FleetScenarioRun run;
  fleet::FleetConfig config = scenario.config;
  config.router = fleet::RouterPolicy::kCarbonGreedy;
  run.greedy = fleet::RunFleet(config, models::DefaultZoo());
  config.router = fleet::RouterPolicy::kStatic;
  run.static_split = fleet::RunFleet(config, models::DefaultZoo());
  return run;
}

}  // namespace clover::testing
