// Tests for the core layer: schemes, the oracle profiler/selector, the
// controller's trigger logic, and harness calibration.
#include <gtest/gtest.h>

#include "carbon/trace_generator.h"
#include "common/units.h"
#include "core/controller.h"
#include "core/harness.h"
#include "core/oracle.h"
#include "core/schemes.h"
#include "perf/perf_model.h"
#include "sim/arrivals.h"

namespace clover::core {
namespace {

using models::Application;
using models::DefaultZoo;

TEST(Schemes, Names) {
  EXPECT_EQ(SchemeName(Scheme::kBase), "BASE");
  EXPECT_EQ(SchemeName(Scheme::kClover), "CLOVER");
  EXPECT_EQ(SchemeName(Scheme::kOracle), "ORACLE");
}

TEST(Oracle, ProfilesStandardizedSpace) {
  const double rate = sim::SizeArrivalRate(
      DefaultZoo(), Application::kClassification, 4, 0.75);
  Oracle oracle(&DefaultZoo(), Application::kClassification, 4, rate, 7);
  oracle.Profile();
  // Space: per layout, a variant per distinct slice type; deduped. With 4
  // variants and <=3 types per layout this is dozens-to-hundreds.
  EXPECT_GE(oracle.entries().size(), 30u);
  EXPECT_LE(oracle.entries().size(), 1000u);
  EXPECT_GT(oracle.ProfilingTestbedHours(), 0.0);
}

TEST(Oracle, SelectionRespectsSlaAndFlipsWithIntensity) {
  const double rate = sim::SizeArrivalRate(
      DefaultZoo(), Application::kClassification, 4, 0.75);
  Oracle oracle(&DefaultZoo(), Application::kClassification, 4, rate, 7);
  oracle.Profile();

  // Build params from the profiled BASE entry.
  graph::ConfigGraph base_graph(Application::kClassification, 4);
  base_graph.SetWeight(3, mig::SliceType::k7g, 4);
  const OracleEntry* base_entry = nullptr;
  for (const OracleEntry& entry : oracle.entries())
    if (entry.graph == base_graph) base_entry = &entry;
  ASSERT_NE(base_entry, nullptr);

  opt::ObjectiveParams params;
  params.lambda = 0.5;
  params.a_base = base_entry->metrics.accuracy;
  params.c_base_g = CarbonGrams(base_entry->metrics.energy_per_request_j,
                                250.0, 1.5);
  params.l_tail_ms = base_entry->metrics.p95_ms * 1.05;
  params.pue = 1.5;

  const OracleEntry& at_high = oracle.Select(params, 350.0);
  const OracleEntry& at_low = oracle.Select(params, 60.0);
  EXPECT_LE(at_high.metrics.p95_ms, params.l_tail_ms);
  EXPECT_LE(at_low.metrics.p95_ms, params.l_tail_ms);
  // High intensity pushes toward lower energy; low intensity toward higher
  // accuracy.
  EXPECT_LE(at_high.metrics.energy_per_request_j,
            at_low.metrics.energy_per_request_j + 1e-9);
  EXPECT_GE(at_low.metrics.accuracy, at_high.metrics.accuracy - 1e-9);
  // And the oracle never loses to BASE on its own objective.
  EXPECT_GE(opt::ObjectiveF(at_high.metrics, params, 350.0),
            opt::ObjectiveF(base_entry->metrics, params, 350.0) - 1e-9);
}

TEST(Harness, CalibrationDefinesSlaFromBase) {
  ExperimentHarness harness(&DefaultZoo());
  const BaselineCalibration& calibration = harness.Calibrate(
      Application::kClassification, 10, 0.75, std::nullopt, 5);
  const auto& family =
      DefaultZoo().ForApplication(Application::kClassification);
  const double service_ms = perf::PerfModel::LatencyMs(
      family, family.Largest(), mig::SliceType::k7g);
  // p95 of a 75%-utilized M/G/10 sits above the service floor but within a
  // small multiple of it.
  EXPECT_GT(calibration.l_tail_ms, service_ms);
  EXPECT_LT(calibration.l_tail_ms, service_ms * 3.0);
  EXPECT_NEAR(calibration.a_base, family.Largest().accuracy, 1e-6);
  EXPECT_GT(calibration.energy_per_request_j, 1.0);
  // Cached: same object returned.
  const BaselineCalibration& again = harness.Calibrate(
      Application::kClassification, 10, 0.75, std::nullopt, 5);
  EXPECT_EQ(&calibration, &again);
}

TEST(Controller, RunsInvocationOnTriggerAndCachesAcrossInvocations) {
  // A step trace: 200 then 300 then 300 — invocation at t=0-ish and at the
  // jump, none when flat.
  std::vector<double> values(48, 200.0);
  for (std::size_t i = 12; i < values.size(); ++i) values[i] = 300.0;
  carbon::CarbonTrace trace("step", 300.0, values);

  ExperimentHarness harness(&DefaultZoo());
  const BaselineCalibration& calibration = harness.Calibrate(
      Application::kClassification, 4, 0.75, std::nullopt, 5);

  opt::ObjectiveParams params;
  params.lambda = 0.5;
  params.a_base = calibration.a_base;
  params.c_base_g =
      CarbonGrams(calibration.energy_per_request_j, 250.0, 1.5);
  params.l_tail_ms = calibration.l_tail_ms;

  sim::SimOptions sim_options;
  sim_options.arrival_rate_qps = calibration.arrival_rate_qps;
  sim_options.window_seconds = 300.0;
  sim_options.seed = 5;
  serving::Deployment base =
      serving::MakeBase(Application::kClassification, 4);
  sim::ClusterSim sim(base, DefaultZoo(), &trace, sim_options);

  Controller::Options options;
  options.scheme = Scheme::kClover;
  options.seed = 5;
  options.measure_window_s = 15.0;
  Controller controller(&sim, &DefaultZoo(), &trace, params, options);

  int invocations = 0;
  for (double t = 300.0; t <= 4 * 3600.0; t += 300.0) {
    if (t > sim.now()) sim.AdvanceTo(t);
    if (controller.Step().has_value()) ++invocations;
  }
  // Exactly two triggers: the cold start and the 200->300 jump.
  EXPECT_EQ(invocations, 2);
  ASSERT_EQ(controller.history().size(), 2u);
  EXPECT_GT(controller.history()[0].search.evaluations.size(), 1u);
  EXPECT_GT(controller.total_optimization_seconds(), 0.0);
  // The second invocation warm-starts from what invocation I deployed: its
  // winner when that was SLA-compliant and capacity-safe, else the
  // compliant fallback. Either way the warm-start graph must be the
  // cluster's deployed configuration at the time.
  const auto& first = controller.history()[0];
  const auto& second = controller.history()[1];
  const bool first_winner_safe =
      first.search.best_sla_ok &&
      graph::NominalCapacityQps(first.search.best, DefaultZoo()) >=
          1.1 * sim_options.arrival_rate_qps;
  if (first_winner_safe) {
    EXPECT_TRUE(second.search.evaluations.front().graph ==
                first.search.best);
  }
}

}  // namespace
}  // namespace clover::core
