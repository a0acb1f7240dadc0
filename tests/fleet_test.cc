// Tests for the geo-distributed fleet layer: router policy unit tests
// (conservation of routed load, capacity-margin respect, latency-budget
// filtering), the fleet determinism contract (bit-identical runs across
// 1/2/8 threads), the fleet fold's conservation of region totals, and the
// headline acceptance property — carbon-greedy routing beats the static
// split on gCO2 over anti-correlated regions at equal SLO attainment, with
// CLOVER adapting inside every region.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "carbon/trace_generator.h"
#include "exp/campaign.h"
#include "fleet/fleet_controller.h"
#include "fleet/fleet_sim.h"
#include "fleet/region.h"
#include "fleet/router.h"
#include "models/zoo.h"
#include "sim/arrivals.h"

namespace clover::fleet {
namespace {

RegionSnapshot MakeSnapshot(const std::string& name, double ci,
                            double capacity_qps, double latency_penalty_ms,
                            bool online = true) {
  RegionSnapshot snapshot;
  snapshot.name = name;
  snapshot.online = online;
  snapshot.ci = ci;
  snapshot.capacity_qps = capacity_qps;
  snapshot.latency_penalty_ms = latency_penalty_ms;
  return snapshot;
}

void ExpectConserved(const std::vector<double>& weights) {
  double sum = 0.0;
  for (double w : weights) {
    EXPECT_GE(w, 0.0);
    sum += w;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

// Every policy, over representative snapshot sets (including outages and
// overload), must conserve the routed load exactly.
TEST(Router, ConservationAcrossPoliciesAndStates) {
  const RouterOptions options{1.25, 120.0};
  std::vector<std::vector<RegionSnapshot>> cases;
  cases.push_back({MakeSnapshot("a", 100, 300, 5),
                   MakeSnapshot("b", 250, 300, 30)});
  cases.push_back({MakeSnapshot("a", 100, 300, 5, /*online=*/false),
                   MakeSnapshot("b", 250, 300, 30),
                   MakeSnapshot("c", 180, 150, 45)});
  cases.push_back({MakeSnapshot("a", 100, 50, 5),   // fleet overloaded
                   MakeSnapshot("b", 250, 60, 30)});
  cases.push_back({MakeSnapshot("a", 100, 300, 500),  // none meet budget
                   MakeSnapshot("b", 250, 300, 600)});
  for (RouterPolicy policy :
       {RouterPolicy::kStatic, RouterPolicy::kLeastLoaded,
        RouterPolicy::kCarbonGreedy}) {
    const auto router = MakeRouter(policy);
    for (const auto& snapshots : cases) {
      SCOPED_TRACE(std::string(router->name()));
      for (double total : {40.0, 400.0, 4000.0}) {
        const std::vector<double> weights =
            router->Split(snapshots, total, options);
        ASSERT_EQ(weights.size(), snapshots.size());
        ExpectConserved(weights);
        for (std::size_t i = 0; i < snapshots.size(); ++i) {
          if (!snapshots[i].online) {
            EXPECT_EQ(weights[i], 0.0);
          }
        }
      }
    }
  }
}

TEST(Router, SplitsAreDeterministic) {
  const RouterOptions options{1.25, 120.0};
  const std::vector<RegionSnapshot> snapshots = {
      MakeSnapshot("a", 210, 280, 5), MakeSnapshot("b", 210, 280, 30),
      MakeSnapshot("c", 95, 140, 45)};
  for (RouterPolicy policy :
       {RouterPolicy::kStatic, RouterPolicy::kLeastLoaded,
        RouterPolicy::kCarbonGreedy}) {
    const auto router = MakeRouter(policy);
    const auto a = router->Split(snapshots, 300.0, options);
    const auto b = router->Split(snapshots, 300.0, options);
    EXPECT_EQ(a, b);
  }
}

// Carbon-greedy fills the cleanest region first but only up to its
// capacity margin; the rest spills to the next-cleanest.
TEST(Router, CarbonGreedyRespectsCapacityMargin) {
  const RouterOptions options{1.25, 0.0};
  const std::vector<RegionSnapshot> snapshots = {
      MakeSnapshot("clean", 80, 200, 5), MakeSnapshot("dirty", 300, 200, 5)};
  const auto router = MakeRouter(RouterPolicy::kCarbonGreedy);

  const double total = 250.0;
  const std::vector<double> weights =
      router->Split(snapshots, total, options);
  ExpectConserved(weights);
  const double safe_cap = 200.0 / 1.25;
  EXPECT_NEAR(weights[0] * total, safe_cap, 1e-9);  // clean region capped
  EXPECT_NEAR(weights[1] * total, total - safe_cap, 1e-9);
  EXPECT_GT(weights[0], weights[1]);

  // When demand fits entirely inside the clean region's margin, the dirty
  // region gets nothing.
  const std::vector<double> small =
      router->Split(snapshots, 100.0, options);
  EXPECT_DOUBLE_EQ(small[0], 1.0);
  EXPECT_DOUBLE_EQ(small[1], 0.0);
}

// A region whose network penalty blows the SLO budget is bypassed even if
// it is the cleanest — unless no region fits the budget at all.
TEST(Router, CarbonGreedyHonorsLatencyBudget) {
  RouterOptions options{1.25, 100.0};
  const std::vector<RegionSnapshot> snapshots = {
      MakeSnapshot("clean-far", 60, 300, 450),
      MakeSnapshot("dirty-near", 280, 300, 10)};
  const auto router = MakeRouter(RouterPolicy::kCarbonGreedy);
  const std::vector<double> weights =
      router->Split(snapshots, 200.0, options);
  EXPECT_DOUBLE_EQ(weights[0], 0.0);
  EXPECT_DOUBLE_EQ(weights[1], 1.0);

  // With no region inside the budget the router serves anyway (the SLO is
  // already lost; starving the stream would only add an outage).
  options.slo_budget_ms = 5.0;
  const std::vector<double> fallback =
      router->Split(snapshots, 200.0, options);
  ExpectConserved(fallback);
  EXPECT_GT(fallback[0], 0.0);  // cleanest again preferred
}

TEST(Router, LeastLoadedBalancesByCapacityAndBacklog) {
  const RouterOptions options{1.25, 0.0};
  std::vector<RegionSnapshot> snapshots = {
      MakeSnapshot("big", 200, 300, 5), MakeSnapshot("small", 100, 100, 5)};
  const auto router = MakeRouter(RouterPolicy::kLeastLoaded);
  const std::vector<double> weights =
      router->Split(snapshots, 200.0, options);
  ExpectConserved(weights);
  EXPECT_NEAR(weights[0], 0.75, 1e-12);  // proportional to capacity
  EXPECT_NEAR(weights[1], 0.25, 1e-12);

  // A backlog derates the loaded region.
  snapshots[0].queue_depth = 600.0;  // 2 s of work at capacity
  const std::vector<double> derated =
      router->Split(snapshots, 200.0, options);
  ExpectConserved(derated);
  EXPECT_LT(derated[0], weights[0]);
}

TEST(Router, StaticUsesPriorsAndRoutesAroundOutages) {
  const RouterOptions options{1.25, 0.0};
  std::vector<RegionSnapshot> snapshots = {
      MakeSnapshot("a", 100, 300, 5), MakeSnapshot("b", 300, 300, 30),
      MakeSnapshot("c", 200, 300, 45)};
  snapshots[0].static_weight = 2.0;
  snapshots[1].static_weight = 1.0;
  snapshots[2].static_weight = 1.0;
  const auto router = MakeRouter(RouterPolicy::kStatic);
  const std::vector<double> weights =
      router->Split(snapshots, 100.0, options);
  EXPECT_NEAR(weights[0], 0.5, 1e-12);
  EXPECT_NEAR(weights[1], 0.25, 1e-12);
  EXPECT_NEAR(weights[2], 0.25, 1e-12);

  snapshots[0].online = false;
  const std::vector<double> rerouted =
      router->Split(snapshots, 100.0, options);
  ExpectConserved(rerouted);
  EXPECT_DOUBLE_EQ(rerouted[0], 0.0);
  EXPECT_NEAR(rerouted[1], 0.5, 1e-12);
  EXPECT_NEAR(rerouted[2], 0.5, 1e-12);
}

TEST(Region, SeedsAreDistinctAndStable) {
  EXPECT_EQ(RegionSeed(1, 0), RegionSeed(1, 0));
  EXPECT_NE(RegionSeed(1, 0), RegionSeed(1, 1));
  EXPECT_NE(RegionSeed(1, 0), RegionSeed(2, 0));
}

// SetArrivalRate(0) silences a cluster's stream; restoring the rate brings
// arrivals back — the mechanism behind routed-around outages.
TEST(Region, ArrivalRateCanBeSilencedAndRestored) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const carbon::CarbonTrace trace("flat", 3600.0,
                                  std::vector<double>(48, 250.0));
  sim::SimOptions options;
  options.arrival_rate_qps = 50.0;
  options.seed = 5;
  sim::ClusterSim sim(
      serving::MakeBase(models::Application::kClassification, 2), zoo,
      &trace, options);
  sim.AdvanceTo(600.0);
  const std::uint64_t before = sim.total_arrivals();
  EXPECT_GT(before, 0u);

  sim.SetArrivalRate(0.0);
  sim.AdvanceTo(1200.0);
  EXPECT_EQ(sim.total_arrivals(), before);  // silence
  EXPECT_EQ(sim.total_completions(), before);  // and fully drained

  sim.SetArrivalRate(50.0);
  sim.AdvanceTo(1800.0);
  EXPECT_GT(sim.total_arrivals(), before);  // restored
}

FleetConfig SmallCloverFleet(int threads) {
  FleetConfig config;
  config.app = models::Application::kClassification;
  config.regions = RegionsFromPresets({"us-west", "ap-northeast"},
                                      /*gpus_per_region=*/2);
  config.duration_hours = 3.0;
  config.scheme = core::Scheme::kClover;
  config.router = RouterPolicy::kCarbonGreedy;
  config.seed = 3;
  config.threads = threads;
  return config;
}

// The fleet determinism contract (acceptance criterion): thread count
// changes wall time, never results — CLOVER controllers and all.
TEST(FleetDeterminism, BitIdenticalAcrossOneTwoEightThreads) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const FleetReport one = RunFleet(SmallCloverFleet(1), zoo);
  const FleetReport two = RunFleet(SmallCloverFleet(2), zoo);
  const FleetReport eight = RunFleet(SmallCloverFleet(8), zoo);
  EXPECT_TRUE(FleetReportsBitIdentical(one, two));
  EXPECT_TRUE(FleetReportsBitIdentical(one, eight));
  EXPECT_GT(one.fleet.completions, 0u);
}

// Same config, same seed, same thread count: trivially reproducible too.
TEST(FleetDeterminism, RepeatRunsAreBitIdentical) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const FleetReport a = RunFleet(SmallCloverFleet(2), zoo);
  const FleetReport b = RunFleet(SmallCloverFleet(2), zoo);
  EXPECT_TRUE(FleetReportsBitIdentical(a, b));
}

// The headline acceptance property on the anti-correlated two-region
// setting with CLOVER inside each region: carbon-greedy routing emits
// measurably less gCO2 than the static split, at equal-or-better SLO
// attainment and with both fleets inside the SLO budget overall.
TEST(FleetRouting, AntiCorrelatedCarbonGreedyBeatsStaticAtEqualSlo) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  FleetConfig config = SmallCloverFleet(2);
  config.duration_hours = 6.0;
  config.regions = RegionsFromPresets({"us-west", "ap-northeast"},
                                      /*gpus_per_region=*/3);

  config.router = RouterPolicy::kCarbonGreedy;
  const FleetReport greedy = RunFleet(config, zoo);
  config.router = RouterPolicy::kStatic;
  const FleetReport static_split = RunFleet(config, zoo);

  const double save_pct =
      greedy.fleet.CarbonSavePctVs(static_split.fleet);
  EXPECT_GE(save_pct, 2.0) << "spatial arbitrage did not pay";
  EXPECT_LE(greedy.fleet.overall_p95_ms, greedy.slo_budget_ms);
  EXPECT_LE(static_split.fleet.overall_p95_ms, static_split.slo_budget_ms);
  // SLO parity, not merely "no collapse": since the router's latency-
  // headroom derate, greedy and static attainment agree to within one
  // 300 s window of the 6 h x 2-region run (1/72 ~= 0.014, rounded up).
  EXPECT_NEAR(greedy.slo_attainment, static_split.slo_attainment, 0.02);
  // Quality holds: fleet accuracy within the family's published range and
  // not materially below the static split's.
  EXPECT_GE(greedy.fleet.weighted_accuracy,
            static_split.fleet.weighted_accuracy - 1.0);
}

// Sharing one evaluation-cache store across regions serializes the region
// step but must keep runs reproducible, and the regional controllers must
// actually pool their evaluations.
TEST(FleetSharedCache, DeterministicWithCrossRegionReuse) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  FleetConfig config = SmallCloverFleet(4);
  config.share_eval_cache = true;
  const FleetReport a = RunFleet(config, zoo);
  const FleetReport b = RunFleet(config, zoo);
  EXPECT_TRUE(FleetReportsBitIdentical(a, b));
  EXPECT_GT(a.fleet.completions, 0u);
  // Both regions report cache state from the one shared store.
  ASSERT_TRUE(a.regions[0].controller.has_value());
  ASSERT_TRUE(a.regions[1].controller.has_value());
  EXPECT_EQ(a.regions[0].controller->cache_size,
            a.regions[1].controller->cache_size);
  EXPECT_GT(a.regions[0].controller->cache_size, 0u);
}

// Controller snapshots surface per-region state without friend access.
TEST(FleetReporting, ControllerSnapshotsDescribeRegions) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const FleetReport report = RunFleet(SmallCloverFleet(1), zoo);
  ASSERT_EQ(report.regions.size(), 2u);
  for (const RegionReport& region : report.regions) {
    ASSERT_TRUE(region.controller.has_value());
    const core::ControllerSnapshot& snapshot = *region.controller;
    EXPECT_EQ(snapshot.invocations,
              static_cast<int>(region.report.optimizations.size()));
    EXPECT_TRUE(snapshot.last_committed.has_value());
    if (snapshot.invocations > 0) {
      EXPECT_GT(snapshot.last_ci, 0.0);
      EXPECT_GT(snapshot.cache_size, 0u);
    }
    EXPECT_DOUBLE_EQ(snapshot.total_optimization_seconds,
                     region.report.optimization_seconds);
  }
  // Weight history covers the initial split plus one entry per interval.
  EXPECT_EQ(report.weight_history.size(),
            1u + static_cast<std::size_t>(3.0 * 3600.0 / 300.0));
}

// The fleet fold conserves its parts: run totals and every window's
// counters, energy and carbon are the region-order sums of the region
// reports, at any thread count.
TEST(FleetReporting, AggregateConservesRegionTotals) {
  exp::CellSpec cell;
  cell.mode = exp::CampaignMode::kFleet;
  cell.scheme = core::Scheme::kBase;
  cell.regions = {"us-west"};
  cell.router = RouterPolicy::kStatic;
  cell.region_replicas = 3;
  cell.gpus = 2;
  cell.hours = 1.0;
  cell.seed = 5;
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    FleetConfig config = exp::MakeFleetCellConfig(cell);
    config.threads = threads;
    const FleetReport report = RunFleet(config, models::DefaultZoo());
    ASSERT_EQ(report.regions.size(), 3u);

    std::uint64_t arrivals = 0, completions = 0, events = 0;
    double energy = 0.0;
    for (const RegionReport& region : report.regions) {
      arrivals += region.report.arrivals;
      completions += region.report.completions;
      events += region.report.sim_events;
      energy += region.report.total_energy_j;
    }
    EXPECT_GT(completions, 0u);
    EXPECT_EQ(report.fleet.arrivals, arrivals);
    EXPECT_EQ(report.fleet.completions, completions);
    EXPECT_EQ(report.fleet.sim_events, events);
    EXPECT_EQ(report.fleet.total_energy_j, energy);

    ASSERT_EQ(report.fleet.windows.size(), 12u);
    for (std::size_t w = 0; w < report.fleet.windows.size(); ++w) {
      std::uint64_t window_arrivals = 0, window_completions = 0;
      double window_energy = 0.0, window_carbon = 0.0;
      for (const RegionReport& region : report.regions) {
        ASSERT_LT(w, region.report.windows.size());
        const sim::WindowRecord& window = region.report.windows[w];
        window_arrivals += window.arrivals;
        window_completions += window.completions;
        window_energy += window.energy_j;
        window_carbon += window.carbon_g;
      }
      const sim::WindowRecord& fleet_window = report.fleet.windows[w];
      EXPECT_EQ(fleet_window.arrivals, window_arrivals);
      EXPECT_EQ(fleet_window.completions, window_completions);
      EXPECT_EQ(fleet_window.energy_j, window_energy);
      EXPECT_EQ(fleet_window.carbon_g, window_carbon);
    }
  }
}

}  // namespace
}  // namespace clover::fleet
