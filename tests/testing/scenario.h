// Scenario-matrix runner: one declarative description per end-to-end
// configuration (trace shape x arrival process x fleet size x objective),
// executed through the full pipeline — carbon trace -> controller/optimizer
// -> cluster simulator — for both BASE and CLOVER, with shared invariant
// checks. scenario_matrix_test.cc instantiates the matrix.
//
// Split across two TUs: scenario.cc holds the gtest-free fixtures and
// execution (library clover::scenarios, also linked by bench/bench_runner
// so perf scenarios and test scenarios are the same code);
// scenario_checks.cc holds CheckScenarioInvariants, which needs gtest
// (library clover::testing).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "carbon/trace.h"
#include "core/harness.h"
#include "fleet/fleet_sim.h"
#include "testing/trace_fixtures.h"

namespace clover::testing {

enum class TraceKind {
  kFlat,       // constant 250 gCO2/kWh
  kCisoMarch,  // solar duck curve (diurnal)
  kEsoMarch,   // wind-dominated stochastic swings
  kStep,       // deterministic square wave 120 <-> 320
};

const char* TraceKindName(TraceKind kind);

// Per-scenario invariant envelopes (defaults fit a steady 4-GPU run).
struct ScenarioLimits {
  double min_carbon_save_pct = 0.0;     // CLOVER vs BASE, same stream
  double max_accuracy_loss_pct = 10.0;  // CLOVER vs BASE
  // Steady scenarios: CLOVER p95 must stay within slack of the calibrated
  // SLA. Bursty scenarios overload both schemes past the steady SLA, so
  // the SLO check there is relative to BASE on the identical stream.
  double p95_slo_slack = 1.25;
  double p95_vs_base_limit = 2.0;
  double min_completion_ratio = 0.98;  // completions / arrivals at run end
  // Reduced-fleet scenarios size the arrival rate for a larger cluster than
  // is deployed (Fig. 15): BASE is expected to overload, so its completion
  // ratio is exempt and CLOVER's SLO is judged on steady-state windows
  // (median per-window p95 over the second half of the run) instead of the
  // cold-start-inclusive overall p95.
  bool base_overloaded = false;
};

struct Scenario {
  std::string name;
  models::Application app = models::Application::kClassification;
  TraceKind trace = TraceKind::kCisoMarch;
  double duration_hours = 6.0;
  int num_gpus = 4;
  int sizing_gpus = 4;  // != num_gpus in reduced-fleet scenarios
  double lambda = 0.5;
  std::optional<double> accuracy_limit_pct;  // threshold-mode objective
  sim::BurstOptions burst;                   // default: steady Poisson
  // Fault schedule replayed against both schemes (sim/fault_injector.h);
  // empty = fault-free. Used by tests/fault_matrix_test.cc.
  sim::FaultSchedule faults;
  double control_interval_s = 300.0;         // also the metrics window
  std::uint64_t seed = 11;
  ScenarioLimits limits;
};

carbon::CarbonTrace MakeScenarioTrace(const Scenario& scenario);

core::ExperimentConfig MakeConfig(const Scenario& scenario,
                                  core::Scheme scheme,
                                  const carbon::CarbonTrace* trace);

struct ScenarioRun {
  core::RunReport base;
  core::RunReport clover;
};

// Runs BASE and CLOVER over the scenario's trace on one harness (shared
// calibration cache, identical arrival stream).
ScenarioRun RunScenario(core::ExperimentHarness& harness,
                        const Scenario& scenario,
                        const carbon::CarbonTrace& trace);

// Asserts the cross-scenario invariants (gtest EXPECT failures attribute to
// the calling test): both schemes serve, carbon savings and accuracy loss
// inside the scenario's envelope, SLO attainment, aligned window series.
void CheckScenarioInvariants(const Scenario& scenario, const ScenarioRun& run);

// --- Fleet scenarios (multi-region routing) -------------------------------
//
// A fleet scenario fixes the regions/load and is executed twice — once
// under the carbon-greedy router and once under the static split — so the
// invariants can compare the spatial policy against the operator baseline.
// The regional scheme is BASE: routing effects are isolated from the
// optimizer's temporal adaptation (bench_runner's fleet_routing scenario
// and tests/fleet_test.cc cover the combined CLOVER-per-region pipeline).
struct FleetScenario {
  std::string name;
  fleet::FleetConfig config;  // router field is overridden per run
  // Carbon-greedy must save at least this much gCO2 vs static (negative
  // values encode "may not lose more than" for correlated fixtures).
  double min_greedy_save_pct = 0.0;
  double min_slo_attainment = 0.90;  // both policies
};

// Two regions sharing the CISO March profile 12 h out of phase: the
// anti-correlated setting where spatial arbitrage must pay off.
FleetScenario AntiCorrelatedFleetScenario();
// Two regions on the same profile at the same phase (independent weather
// only): carbon-greedy has almost nothing to arbitrage and must not lose.
FleetScenario CorrelatedFleetScenario();
// Three regions with a scheduled mid-run outage of one: the router must
// route around it and the fleet SLO must hold.
FleetScenario OutageFleetScenario();

struct FleetScenarioRun {
  fleet::FleetReport greedy;
  fleet::FleetReport static_split;
};

FleetScenarioRun RunFleetScenario(const FleetScenario& scenario);

// Shared fleet invariants (gtest): both policies serve, routed load is
// conserved at every rebalance, the greedy-vs-static carbon envelope and
// the SLO attainment floor hold.
void CheckFleetScenarioInvariants(const FleetScenario& scenario,
                                  const FleetScenarioRun& run);

}  // namespace clover::testing
