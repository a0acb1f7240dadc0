// Tests for the discrete-event cluster simulator: event queue order,
// Poisson arrivals, conservation laws, latency semantics, energy windows,
// reconfiguration draining, and determinism.
#include <gtest/gtest.h>

#include <cmath>

#include "carbon/trace.h"
#include "common/check.h"
#include "common/units.h"
#include "perf/perf_model.h"
#include "power/power_model.h"
#include "sim/arrivals.h"
#include "sim/cluster_sim.h"
#include "sim/event_queue.h"

namespace clover::sim {
namespace {

using models::Application;
using models::DefaultZoo;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  RngStream rng(3, "eq");
  for (int i = 0; i < 1000; ++i)
    queue.Push(Event{rng.NextDouble() * 100.0, i, 0.0});
  double previous = -1.0;
  while (!queue.Empty()) {
    const Event e = queue.Pop();
    EXPECT_GE(e.time, previous);
    previous = e.time;
  }
}

TEST(Arrivals, PoissonMeanRate) {
  PoissonArrivals arrivals(50.0, 7);
  double last = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) last = arrivals.NextArrivalTime();
  EXPECT_NEAR(last, n / 50.0, n / 50.0 * 0.02);
}

TEST(Arrivals, SizingRuleMatchesBaseUtilization) {
  const double rate = SizeArrivalRate(DefaultZoo(),
                                      Application::kClassification, 10, 0.75);
  const auto& family =
      DefaultZoo().ForApplication(Application::kClassification);
  const double service_s =
      perf::PerfModel::LatencyMs(family, family.Largest(),
                                 mig::SliceType::k7g) /
      1e3;
  EXPECT_NEAR(rate * service_s / 10.0, 0.75, 1e-9);
}

carbon::CarbonTrace FlatTrace(double ci = 200.0) {
  return carbon::CarbonTrace("flat", 3600.0, std::vector<double>(100, ci));
}

SimOptions Options(double rate, std::uint64_t seed = 1) {
  SimOptions options;
  options.arrival_rate_qps = rate;
  options.window_seconds = 300.0;
  options.seed = seed;
  return options;
}

TEST(ClusterSim, ConservationOfRequests) {
  const auto trace = FlatTrace();
  serving::Deployment base = serving::MakeBase(Application::kClassification,
                                               4);
  const double rate =
      SizeArrivalRate(DefaultZoo(), Application::kClassification, 4, 0.7);
  ClusterSim sim(base, DefaultZoo(), &trace, Options(rate));
  sim.AdvanceTo(1800.0);
  // completions + in-flight + queued == arrivals; in-flight <= instances.
  const std::uint64_t in_flight_and_queued =
      sim.total_arrivals() - sim.total_completions();
  EXPECT_LE(in_flight_and_queued, sim.queue_depth() + 4);
  EXPECT_GT(sim.total_completions(), 0u);
}

TEST(ClusterSim, LatencyNeverBelowServiceFloor) {
  const auto trace = FlatTrace();
  serving::Deployment base = serving::MakeBase(Application::kLanguage, 2);
  const auto& family = DefaultZoo().ForApplication(Application::kLanguage);
  const double service_ms = perf::PerfModel::LatencyMs(
      family, family.Largest(), mig::SliceType::k7g);
  const double rate = 2.0 * 0.5 * 1e3 / service_ms;
  ClusterSim sim(base, DefaultZoo(), &trace, Options(rate));
  sim.AdvanceTo(600.0);
  const Measurement m = sim.Measure(600.0);
  // Jitter is truncated at -3 sigma => floor at ~0.76x base service time.
  EXPECT_GE(m.p95_ms, service_ms * 0.7);
  EXPECT_GT(m.completions, 100u);
}

TEST(ClusterSim, UtilizationTargetsHold) {
  // At the sizing rule's 75%, BASE must be stable: completions track
  // arrivals and the queue stays shallow.
  const auto trace = FlatTrace();
  serving::Deployment base =
      serving::MakeBase(Application::kClassification, 10);
  const double rate =
      SizeArrivalRate(DefaultZoo(), Application::kClassification, 10, 0.75);
  ClusterSim sim(base, DefaultZoo(), &trace, Options(rate));
  sim.AdvanceTo(3600.0);
  const double served_ratio =
      static_cast<double>(sim.total_completions()) /
      static_cast<double>(sim.total_arrivals());
  EXPECT_GT(served_ratio, 0.99);
  EXPECT_LT(sim.queue_depth(), 50u);
}

TEST(ClusterSim, OverloadGrowsQueue) {
  const auto trace = FlatTrace();
  serving::Deployment base = serving::MakeBase(Application::kDetection, 1);
  const auto& family = DefaultZoo().ForApplication(Application::kDetection);
  const double capacity =
      1e3 / perf::PerfModel::LatencyMs(family, family.Largest(),
                                       mig::SliceType::k7g);
  ClusterSim sim(base, DefaultZoo(), &trace, Options(capacity * 2.0));
  sim.AdvanceTo(1200.0);
  EXPECT_GT(sim.queue_depth(), 100u);
  // And the measured p95 reflects the backlog.
  const Measurement m = sim.Measure(300.0);
  EXPECT_GT(m.p95_ms, 10000.0);
}

TEST(ClusterSim, DeterministicForFixedSeed) {
  const auto trace = FlatTrace();
  auto run = [&](std::uint64_t seed) {
    serving::Deployment base =
        serving::MakeBase(Application::kClassification, 4);
    const double rate =
        SizeArrivalRate(DefaultZoo(), Application::kClassification, 4, 0.75);
    ClusterSim sim(base, DefaultZoo(), &trace, Options(rate, seed));
    sim.AdvanceTo(3600.0);
    return std::make_tuple(sim.total_arrivals(), sim.total_completions(),
                           sim.total_energy_j(), sim.OverallP95Ms());
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(std::get<0>(run(42)), std::get<0>(run(43)));
}

TEST(ClusterSim, WindowEnergyMatchesMeterIdentity) {
  // An idle cluster (no arrivals possible? rate must be >0; use tiny rate)
  // draws static power only, so each 300 s window is ~static * gpus * 300 J.
  // The intensity changes every 450 s, so windows straddle a change.
  const carbon::CarbonTrace trace("steps", 450.0,
                                  {100.0, 250.0, 175.0, 400.0, 90.0});
  serving::Deployment base = serving::MakeBase(Application::kLanguage, 3);
  ClusterSim sim(base, DefaultZoo(), &trace, Options(1e-3));
  sim.AdvanceTo(1500.0);
  ASSERT_GE(sim.windows().size(), 4u);
  const double static_w = power::PowerModel::StaticWattsPerGpu() * 3;
  for (const WindowRecord& window : sim.windows()) {
    EXPECT_NEAR(window.energy_j, static_w * 300.0,
                0.2 * static_w * 300.0);  // tiny dynamic residue allowed
    // The window's intensity is the trace sampled at the window's start,
    // and carbon = energy * ci * pue.
    EXPECT_EQ(window.ci, trace.At(window.start_s));
    EXPECT_NEAR(window.carbon_g,
                CarbonGrams(window.energy_j, window.ci, perf::kPue), 1e-9);
  }
}

// TakeWindows hands every closed window over exactly once, in order: the
// takes of a stepped simulator concatenate to its twin's whole series.
TEST(ClusterSim, TakeWindowsHandsEachWindowOverOnce) {
  const auto trace = FlatTrace();
  const serving::Deployment base =
      serving::MakeBase(Application::kClassification, 2);
  ClusterSim stepped(base, DefaultZoo(), &trace, Options(40.0, 9));
  ClusterSim twin(base, DefaultZoo(), &trace, Options(40.0, 9));
  std::vector<WindowRecord> taken;
  for (const double t : {250.0, 900.0, 950.0, 2100.0}) {
    stepped.AdvanceTo(t);
    stepped.TakeWindows(&taken);
    EXPECT_TRUE(stepped.windows().empty());
  }
  twin.AdvanceTo(2100.0);
  ASSERT_EQ(taken.size(), 7u);
  ASSERT_EQ(taken.size(), twin.windows().size());
  for (std::size_t w = 0; w < taken.size(); ++w) {
    EXPECT_EQ(taken[w].start_s, twin.windows()[w].start_s);
    EXPECT_EQ(taken[w].completions, twin.windows()[w].completions);
    EXPECT_EQ(taken[w].p95_ms, twin.windows()[w].p95_ms);
    EXPECT_EQ(taken[w].energy_j, twin.windows()[w].energy_j);
  }
}

TEST(ClusterSim, PartitionedClusterUsesLessEnergyPerRequest) {
  // The Fig. 3 effect: same variant, finer partition => lower energy per
  // request at equal load.
  const auto trace = FlatTrace();
  const auto& family =
      DefaultZoo().ForApplication(Application::kClassification);
  (void)family;
  const double rate =
      SizeArrivalRate(DefaultZoo(), Application::kClassification, 4, 0.5);

  serving::Deployment full =
      serving::MakeUniform(Application::kClassification, 4, 1, 2);  // B5@7g
  ClusterSim sim_full(full, DefaultZoo(), &trace, Options(rate));
  sim_full.AdvanceTo(600.0);
  const Measurement m_full = sim_full.Measure(1200.0);

  serving::Deployment fine =
      serving::MakeUniform(Application::kClassification, 4, 19, 2);  // B5@1g
  ClusterSim sim_fine(fine, DefaultZoo(), &trace, Options(rate));
  sim_fine.AdvanceTo(600.0);
  const Measurement m_fine = sim_fine.Measure(1200.0);

  EXPECT_LT(m_fine.energy_per_request_j, m_full.energy_per_request_j);
  // ... at the cost of latency (Opportunity 2's trade-off).
  EXPECT_GT(m_fine.p95_ms, m_full.p95_ms);
}

TEST(ClusterSim, ReconfigurationDrainsAndPausesAffectedGpus) {
  const auto trace = FlatTrace();
  serving::Deployment base =
      serving::MakeBase(Application::kClassification, 2);
  const double rate =
      SizeArrivalRate(DefaultZoo(), Application::kClassification, 2, 0.6);
  ClusterSim sim(base, DefaultZoo(), &trace, Options(rate));
  sim.AdvanceTo(300.0);
  const std::uint64_t before = sim.total_completions();

  serving::Deployment next = base;
  next.gpus[0].layout_id = 19;
  next.gpus[0].variant_ordinals.assign(7, 0);
  const double ready = sim.ApplyDeployment(next);
  EXPECT_GT(ready, sim.now());  // gpu0 offline for repartition + load

  sim.AdvanceTo(ready + 600.0);
  EXPECT_GT(sim.total_completions(), before);  // service continued
  EXPECT_EQ(sim.deployment().gpus[0].layout_id, 19);
}

TEST(ClusterSim, DrainAcrossAWindowEdgeClosesTheWindow) {
  // Overloaded, so both GPUs are busy when the reconfiguration starts just
  // before the 1 s window edge: the drain runs past the edge and must close
  // the window on the way, like any other advance.
  const auto trace = FlatTrace();
  serving::Deployment base =
      serving::MakeBase(Application::kClassification, 2);
  const auto& family =
      DefaultZoo().ForApplication(Application::kClassification);
  const double capacity =
      2.0 * 1e3 /
      perf::PerfModel::LatencyMs(family, family.Largest(),
                                 mig::SliceType::k7g);
  SimOptions options = Options(2.0 * capacity);
  options.window_seconds = 1.0;
  ClusterSim sim(base, DefaultZoo(), &trace, options);
  sim.AdvanceTo(1.0 - 1e-4);

  serving::Deployment next = base;
  next.gpus[0].layout_id = 19;
  next.gpus[0].variant_ordinals.assign(7, 0);
  sim.ApplyDeployment(next);
  ASSERT_GT(sim.now(), 1.0);
  EXPECT_EQ(sim.windows().size(), 1u);
}

TEST(ClusterSim, ZeroCostReconfigurationIsImmediate) {
  const auto trace = FlatTrace();
  serving::Deployment base =
      serving::MakeBase(Application::kClassification, 2);
  ClusterSim sim(base, DefaultZoo(), &trace, Options(10.0));
  sim.AdvanceTo(100.0);
  serving::Deployment next =
      serving::MakeCo2Opt(Application::kClassification, 2, DefaultZoo());
  const mig::RepartitionCostModel free{0.0, 0.0, 0.0};
  const double ready = sim.ApplyDeployment(next, free);
  EXPECT_LE(ready - sim.now(), 1e-9);
}

TEST(ClusterSim, MeasureReportsThroughputAndEnergy) {
  const auto trace = FlatTrace();
  serving::Deployment base =
      serving::MakeBase(Application::kClassification, 4);
  const double rate =
      SizeArrivalRate(DefaultZoo(), Application::kClassification, 4, 0.75);
  ClusterSim sim(base, DefaultZoo(), &trace, Options(rate));
  sim.AdvanceTo(600.0);
  const Measurement m = sim.Measure(300.0);
  EXPECT_NEAR(m.throughput_qps, rate, rate * 0.1);
  EXPECT_GT(m.energy_per_request_j, 0.0);
  EXPECT_GT(m.weighted_accuracy, 80.0);  // all-B7 serving
  EXPECT_DOUBLE_EQ(m.duration_s, 300.0);
}

TEST(ClusterSim, AdvanceBackwardsRejected) {
  const auto trace = FlatTrace();
  serving::Deployment base = serving::MakeBase(Application::kLanguage, 1);
  ClusterSim sim(base, DefaultZoo(), &trace, Options(1.0));
  sim.AdvanceTo(100.0);
  EXPECT_THROW(sim.AdvanceTo(50.0), CheckError);
}

}  // namespace
}  // namespace clover::sim
