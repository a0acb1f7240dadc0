// Tests for the geo-distributed fleet layer: router policy unit tests
// (conservation of routed load, capacity-margin respect, latency-budget
// filtering), the fleet determinism contract (bit-identical runs across
// 1/2/8 threads), the fleet window fold (conservation of region totals,
// alignment of regions that overrun control boundaries), and the
// headline acceptance property — carbon-greedy routing beats the static
// split on gCO2 over anti-correlated regions at equal SLO attainment, with
// CLOVER adapting inside every region.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "carbon/trace_generator.h"
#include "common/units.h"
#include "core/harness.h"
#include "exp/campaign.h"
#include "fleet/fleet_controller.h"
#include "fleet/fleet_sim.h"
#include "fleet/region.h"
#include "fleet/router.h"
#include "fleet/window_fold.h"
#include "models/zoo.h"
#include "perf/calibration.h"
#include "sim/arrivals.h"

namespace clover::fleet {
namespace {

RegionSnapshot MakeSnapshot(double ci, double capacity_qps,
                            double latency_penalty_ms, bool online = true) {
  RegionSnapshot snapshot;
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
  cases.push_back({MakeSnapshot(100, 300, 5),
                   MakeSnapshot(250, 300, 30)});
  cases.push_back({MakeSnapshot(100, 300, 5, /*online=*/false),
                   MakeSnapshot(250, 300, 30),
                   MakeSnapshot(180, 150, 45)});
  cases.push_back({MakeSnapshot(100, 50, 5),   // fleet overloaded
                   MakeSnapshot(250, 60, 30)});
  cases.push_back({MakeSnapshot(100, 300, 500),  // none meet budget
                   MakeSnapshot(250, 300, 600)});
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
      MakeSnapshot(210, 280, 5), MakeSnapshot(210, 280, 30),
      MakeSnapshot(95, 140, 45)};
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
      MakeSnapshot(80, 200, 5), MakeSnapshot(300, 200, 5)};
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
      MakeSnapshot(60, 300, 450),
      MakeSnapshot(280, 300, 10)};
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
      MakeSnapshot(200, 300, 5), MakeSnapshot(100, 100, 5)};
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
      MakeSnapshot(100, 300, 5), MakeSnapshot(300, 300, 30),
      MakeSnapshot(200, 300, 45)};
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

void ExpectSameBits(const std::vector<double>& a,
                    const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "index " << i << ": " << a[i] << " vs " << b[i];
}

// The carbon-greedy split restated with its former fill order — an index
// sort whose comparator reads each snapshot through regions[index] — for
// snapshots that are all online and inside the latency budget.
std::vector<double> IndexSortGreedySplit(
    const std::vector<RegionSnapshot>& regions, double total_qps,
    const RouterOptions& options) {
  std::vector<std::size_t> order(regions.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (regions[a].ci != regions[b].ci) return regions[a].ci < regions[b].ci;
    if (regions[a].latency_penalty_ms != regions[b].latency_penalty_ms)
      return regions[a].latency_penalty_ms < regions[b].latency_penalty_ms;
    return a < b;
  });
  std::vector<double> alloc(regions.size(), 0.0);
  double remaining = total_qps;
  for (std::size_t i : order) {
    const double headroom = std::max(
        0.0, 1.0 - regions[i].latency_penalty_ms / options.slo_budget_ms);
    const double take = std::min(
        remaining,
        regions[i].capacity_qps / std::max(1.0, options.capacity_margin) *
            headroom);
    alloc[i] = take;
    remaining -= take;
    if (remaining <= 0.0) break;
  }
  if (remaining > 0.0) {
    double cap_sum = 0.0;
    for (const RegionSnapshot& region : regions) cap_sum += region.capacity_qps;
    for (std::size_t i = 0; i < regions.size(); ++i)
      alloc[i] += remaining * regions[i].capacity_qps / cap_sum;
  }
  // Exact normalization: the residual goes to the largest weight.
  double total = 0.0;
  for (double a : alloc) total += a;
  std::size_t largest = 0;
  for (std::size_t i = 0; i < alloc.size(); ++i) {
    alloc[i] /= total;
    if (alloc[i] > alloc[largest]) largest = i;
  }
  double sum_except = 0.0;
  for (std::size_t i = 0; i < alloc.size(); ++i)
    if (i != largest) sum_except += alloc[i];
  alloc[largest] = 1.0 - sum_except;
  return alloc;
}

// Carbon-greedy sorts contiguous (ci, penalty, index) keys; over shuffled
// snapshots with many tied intensities and penalties its split must equal
// the index-sort fill bit for bit, from a light load to an overload that
// spills past every region's margin.
TEST(Router, CarbonGreedyKeySortMatchesIndexSort) {
  const RouterOptions options{1.45, 120.0};
  const auto router = MakeRouter(RouterPolicy::kCarbonGreedy);
  std::mt19937_64 rng(20261019);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(trial);
    std::vector<RegionSnapshot> snapshots;
    for (int i = 0; i < 64; ++i) {
      const double ci = 120.0 + 60.0 * static_cast<double>(rng() % 3);
      const double penalty = rng() % 2 == 0 ? 5.0 : 20.0;
      const double capacity = 100.0 + 50.0 * static_cast<double>(rng() % 4);
      snapshots.push_back(MakeSnapshot(ci, capacity, penalty));
    }
    std::shuffle(snapshots.begin(), snapshots.end(), rng);
    double safe_total = 0.0;
    for (const RegionSnapshot& snapshot : snapshots)
      safe_total += snapshot.capacity_qps / options.capacity_margin;
    for (const double load : {0.05, 0.4, 0.9, 1.3}) {
      SCOPED_TRACE(load);
      const double total_qps = load * safe_total;
      ExpectSameBits(router->Split(snapshots, total_qps, options),
                     IndexSortGreedySplit(snapshots, total_qps, options));
    }
  }
}

// The fleet p95 as the point-mass walk found it before weighted selection:
// the masses sorted slowest first, the value at which the running count
// first exceeds 5% of the window's completions.
double SortWalkP95(std::vector<std::pair<double, std::uint64_t>> masses,
                   std::uint64_t completions) {
  std::sort(masses.begin(), masses.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::uint64_t mass_above = 0;
  for (const auto& [value, count] : masses) {
    mass_above += count;
    if (static_cast<double>(mass_above) >
        0.05 * static_cast<double>(completions))
      return value;
  }
  return 0.0;
}

// Folds one window per region — region i closed `completions[i]` requests
// at p95 `p95_ms[i]` behind `penalty_ms[i]` of network latency — and checks
// the fleet window's p95 against the sort walk over the same masses.
void ExpectFoldP95MatchesSortWalk(const std::vector<double>& p95_ms,
                                  const std::vector<std::uint64_t>& completions,
                                  const std::vector<double>& penalty_ms) {
  opt::ObjectiveParams params;
  params.a_base = 80.0;
  params.c_base_g = 1.0;
  params.l_tail_ms = 100.0;
  WindowFold fold(p95_ms.size(), params, /*fallback_energy_per_request_j=*/
                  1.0, /*slo_budget_ms=*/100.0);
  std::vector<std::pair<double, std::uint64_t>> masses;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < p95_ms.size(); ++i) {
    sim::WindowRecord window;
    window.duration_s = 300.0;
    window.arrivals = window.completions = completions[i];
    window.p95_ms = p95_ms[i];
    window.mean_ms = 0.5 * p95_ms[i];
    window.max_ms = 2.0 * p95_ms[i];
    window.energy_j = 1e4;
    window.ci = 200.0;
    fold.Push(i, window, penalty_ms[i]);
    if (completions[i] > 0)
      masses.emplace_back(p95_ms[i] + penalty_ms[i], completions[i]);
    total += completions[i];
  }
  fold.FoldReady();
  ASSERT_EQ(fold.windows().size(), 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fold.windows()[0].p95_ms),
            std::bit_cast<std::uint64_t>(SortWalkP95(masses, total)))
      << fold.windows()[0].p95_ms << " vs " << SortWalkP95(masses, total);
}

// The fold finds the p95 point mass by weighted selection; it must return
// the same element value as the sort walk — ties, a dominant region, a
// lone region and exact 5% boundaries included.
TEST(FleetReporting, FoldP95SelectionMatchesSortWalk) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t regions = 1 + rng() % 2000;
    std::vector<double> p95(regions), penalty(regions);
    std::vector<std::uint64_t> completions(regions);
    for (std::size_t i = 0; i < regions; ++i) {
      // Few distinct values, so many masses tie.
      p95[i] = 10.0 + 2.5 * static_cast<double>(rng() % 4);
      penalty[i] = 5.0 * static_cast<double>(rng() % 3);
      completions[i] = rng() % 5 == 0 ? 0 : 1 + rng() % 1000;
    }
    completions[rng() % regions] += 1;  // at least one region served
    ExpectFoldP95MatchesSortWalk(p95, completions, penalty);
    // One region dominates the mass: the tail is its value, wherever it
    // sits among the others.
    completions[rng() % regions] = 1000000;
    ExpectFoldP95MatchesSortWalk(p95, completions, penalty);
  }
  ExpectFoldP95MatchesSortWalk({42.0}, {17}, {5.0});  // one region only
  // The top mass is exactly 5% of 100 completions, which is not more than
  // 5%: the tail is the next value down, whichever mass is the pivot.
  ExpectFoldP95MatchesSortWalk({100.0, 50.0}, {5, 95}, {0.0, 0.0});
  ExpectFoldP95MatchesSortWalk({50.0, 100.0}, {95, 5}, {0.0, 0.0});
  ExpectFoldP95MatchesSortWalk({100.0, 50.0, 100.0}, {3, 95, 3},
                               {0.0, 0.0, 0.0});
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

// What a hand-stepped fleet's regions handed over: handed_over[b][i] holds
// the windows region i closed between barriers b - 1 and b (the last
// barrier follows the final advance to the run's end), all pushed through
// `fold`.
struct HandOff {
  std::vector<std::vector<std::vector<sim::WindowRecord>>> handed_over;
  std::unique_ptr<WindowFold> fold;
};

// Steps a fault-free discrete-event fleet the way RunFleet does —
// calibration, one trace and seed per region, router, FleetController over
// core::ControlBoundaries, a hand-off and fold at every barrier — but
// keeps every window the regions hand over, so a test can check the fold
// against the windows the regions actually closed.
HandOff StepFleetByHand(const FleetConfig& config) {
  const models::ModelZoo& zoo = models::DefaultZoo();
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
  double total_qps = 0.0;
  for (const RegionConfig& region : config.regions)
    total_qps += sim::SizeArrivalRate(zoo, config.app, region.num_gpus,
                                      config.utilization_target);

  std::vector<std::unique_ptr<Region>> regions;
  carbon::TraceGeneratorOptions trace_options;
  trace_options.duration_hours = config.duration_hours;
  trace_options.seed = config.seed + 41;
  for (std::size_t i = 0; i < config.regions.size(); ++i) {
    sim::SimOptions sim_options;
    sim_options.arrival_rate_qps =
        total_qps / static_cast<double>(config.regions.size());
    sim_options.window_seconds = config.control_interval_s;
    sim_options.seed = RegionSeed(config.seed, i);
    regions.push_back(std::make_unique<Region>(
        config.regions[i], &zoo,
        carbon::GenerateRegionTrace(config.regions[i].preset, trace_options),
        serving::MakeBase(config.app, config.regions[i].num_gpus),
        sim_options, Region::Backend::kDiscreteEvent));
  }
  const std::unique_ptr<Router> router = MakeRouter(config.router);
  FleetControllerOptions options;
  options.scheme = config.scheme;
  options.controller = config.controller;
  options.router = config.router_options;
  if (options.router.slo_budget_ms <= 0.0)
    options.router.slo_budget_ms =
        config.slo_budget_factor * params.l_tail_ms;
  options.threads = config.threads;
  options.seed = config.seed;
  FleetController controller(&regions, &zoo, router.get(), params,
                             total_qps, options);

  HandOff hand_off;
  hand_off.fold = std::make_unique<WindowFold>(
      regions.size(), params, calibration.energy_per_request_j,
      options.router.slo_budget_ms);
  const auto take = [&] {
    auto& barrier = hand_off.handed_over.emplace_back(regions.size());
    for (std::size_t i = 0; i < regions.size(); ++i) {
      regions[i]->TakeClosedWindows(&barrier[i]);
      for (const sim::WindowRecord& window : barrier[i])
        hand_off.fold->Push(i, window,
                            regions[i]->LatencyPenaltyAt(window.start_s));
    }
    hand_off.fold->FoldReady();
  };
  const double duration_s = HoursToSeconds(config.duration_hours);
  for (const double t :
       core::ControlBoundaries(config.control_interval_s, duration_s)) {
    controller.Step(std::min(t, duration_s));
    take();
  }
  for (auto& region : regions)
    if (duration_s > region->now()) region->AdvanceTo(duration_s);
  take();
  return hand_off;
}

// Every window region `i` handed over, in order.
std::vector<sim::WindowRecord> RegionWindows(const HandOff& hand_off,
                                             std::size_t i) {
  std::vector<sim::WindowRecord> windows;
  for (const auto& barrier : hand_off.handed_over)
    windows.insert(windows.end(), barrier[i].begin(), barrier[i].end());
  return windows;
}

void ExpectSameWindows(const std::vector<sim::WindowRecord>& a,
                       const std::vector<sim::WindowRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t w = 0; w < a.size(); ++w) {
    SCOPED_TRACE(w);
    EXPECT_EQ(a[w].start_s, b[w].start_s);
    EXPECT_EQ(a[w].arrivals, b[w].arrivals);
    EXPECT_EQ(a[w].completions, b[w].completions);
    EXPECT_EQ(a[w].p95_ms, b[w].p95_ms);
    EXPECT_EQ(a[w].mean_ms, b[w].mean_ms);
    EXPECT_EQ(a[w].max_ms, b[w].max_ms);
    EXPECT_EQ(a[w].weighted_accuracy, b[w].weighted_accuracy);
    EXPECT_EQ(a[w].energy_j, b[w].energy_j);
    EXPECT_EQ(a[w].carbon_g, b[w].carbon_g);
    EXPECT_EQ(a[w].ci, b[w].ci);
  }
}

// The fleet fold conserves its parts: run totals and every window's
// counters, energy and carbon are the region-order sums of what the regions
// closed, at any thread count — and RunFleet reports exactly that fold.
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

    const HandOff hand_off = StepFleetByHand(config);
    ASSERT_EQ(hand_off.fold->windows().size(), 12u);
    ExpectSameWindows(hand_off.fold->windows(), report.fleet.windows);
    std::vector<std::vector<sim::WindowRecord>> closed;
    for (std::size_t i = 0; i < report.regions.size(); ++i)
      closed.push_back(RegionWindows(hand_off, i));
    for (std::size_t w = 0; w < report.fleet.windows.size(); ++w) {
      std::uint64_t window_arrivals = 0, window_completions = 0;
      double window_energy = 0.0, window_carbon = 0.0;
      for (const std::vector<sim::WindowRecord>& region_windows : closed) {
        ASSERT_LT(w, region_windows.size());
        const sim::WindowRecord& window = region_windows[w];
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

// CLOVER regions evaluate candidates on their production simulators, so a
// region's clock overruns control boundaries: one step closes two windows
// and a later one none, and regions of different sizes fall out of step.
// The streamed fold must align window indices across regions anyway, stop
// at the smallest region count, and stay bit-identical at any thread
// count.
TEST(FleetReporting, StreamedFoldAlignsOverrunningRegions) {
  FleetConfig config = SmallCloverFleet(1);
  config.regions[1].num_gpus = 3;
  config.duration_hours = 1.0;

  const HandOff hand_off = StepFleetByHand(config);
  bool overran = false, out_of_step = false;
  for (std::size_t b = 0; b + 1 < hand_off.handed_over.size(); ++b) {
    const auto& barrier = hand_off.handed_over[b];
    for (const auto& windows : barrier)
      overran = overran || windows.size() != 1;
    out_of_step = out_of_step || barrier[0].size() != barrier[1].size();
  }
  EXPECT_TRUE(overran) << "no step closed 0 or >= 2 windows in a region";
  EXPECT_TRUE(out_of_step) << "no window waited for the other region";

  const FleetReport one = RunFleet(config, models::DefaultZoo());
  ExpectSameWindows(hand_off.fold->windows(), one.fleet.windows);
  std::size_t fewest = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < one.regions.size(); ++i) {
    const core::RunReport& region = one.regions[i].report;
    EXPECT_TRUE(region.windows.empty());
    EXPECT_EQ(region.objective_series.size(),
              RegionWindows(hand_off, i).size());
    fewest = std::min(fewest, region.objective_series.size());
  }
  EXPECT_EQ(one.fleet.windows.size(), fewest);
  EXPECT_EQ(one.fleet.objective_series.size(), fewest);
  for (const int threads : {2, 8}) {
    config.threads = threads;
    EXPECT_TRUE(FleetReportsBitIdentical(
        one, RunFleet(config, models::DefaultZoo())))
        << threads << " threads";
  }
}

// The fleet steps over core::ControlBoundaries, the harness's schedule, so
// a duration off the interval grid rebalances once per boundary plus the
// initial split.
TEST(FleetReporting, WeightHistoryFollowsControlBoundaries) {
  FleetConfig config = SmallCloverFleet(2);
  config.scheme = core::Scheme::kBase;
  config.duration_hours = 1.05;
  const FleetReport report = RunFleet(config, models::DefaultZoo());
  const std::size_t boundaries =
      core::ControlBoundaries(config.control_interval_s,
                              HoursToSeconds(config.duration_hours))
          .size();
  EXPECT_EQ(boundaries, 12u);
  EXPECT_EQ(report.weight_history.size(), 1 + boundaries);
  EXPECT_EQ(report.fleet.windows.size(), 12u);
}

}  // namespace
}  // namespace clover::fleet
