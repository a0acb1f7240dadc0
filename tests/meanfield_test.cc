// Differential verification of the mean-field (fluid) fidelity tier
// against the discrete-event simulator, plus the fluid state invariants.
//
// The ladder contract (sim/meanfield.h): rung 2 must track rung 3 on the
// aggregate quantities campaigns consume — utilization, served volume,
// energy/carbon, and the p95 tail — while costing arithmetic instead of
// events. The grid below reuses the PR-4 differential setup (a BASE
// deployment of c full-GPU classification instances under exponential
// service IS an M/M/c queue) across every fleet size the paper's
// experiments use and light/sized/heavy load.
//
// Tolerances, chosen to pass with >= 3x margin at the pinned seeds while
// catching systematic bias:
//   * utilization        0.02 absolute — fluid busy fraction is exact
//                        rho; the simulator's measured value fluctuates.
//   * completions        1.5% relative — fluid mass is exactly lambda*T;
//                        Poisson counts vary ~1/sqrt(lambda*T).
//   * energy, carbon     2.5% relative — follow busy seconds.
//   * p95                12% relative — the fluid tail is the analytic
//                        M/M/c sojourn quantile (the same 10% band the
//                        surrogate gate uses) plus the synthetic
//                        histogram's bin resolution.
//   * fleet aggregation  5% on totals when RunFleetMeanField replaces
//                        RunFleet's discrete regions (router feedback
//                        compounds small per-window differences).
//
// Both tiers run through one fleet loop (fleet::Region's backend seam), so
// the fluid fleet also inherits RunFleet's determinism contract: results
// are bit-identical at every thread count.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "carbon/trace.h"
#include "common/check.h"
#include "common/units.h"
#include "core/harness.h"
#include "fleet/fleet_sim.h"
#include "fleet/meanfield_fleet.h"
#include "graph/config_graph.h"
#include "mig/slice_type.h"
#include "models/zoo.h"
#include "opt/surrogate.h"
#include "perf/perf_model.h"
#include "serving/deployment.h"
#include "sim/analytic.h"
#include "sim/cluster_sim.h"
#include "sim/meanfield.h"
#include "testing/proptest.h"

namespace clover::sim {
namespace {

const carbon::CarbonTrace& FlatTrace() {
  static const carbon::CarbonTrace kFlat("meanfield-flat", 3600.0,
                                         std::vector<double>(4000, 250.0));
  return kFlat;
}

double ServiceRatePerServer() {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const models::ModelFamily& family =
      zoo.ForApplication(models::Application::kClassification);
  return 1.0 / MsToSeconds(perf::PerfModel::LatencyMs(
                   family, family.Largest(), mig::SliceType::k7g));
}

SimOptions MmcOptions(int servers, double rho, std::uint64_t seed) {
  SimOptions options;
  options.arrival_rate_qps = rho * servers * ServiceRatePerServer();
  options.seed = seed;
  options.window_seconds = 600.0;
  options.service_model = ServiceModel::kExponential;
  return options;
}

struct TierComparison {
  double fluid_utilization = 0.0, sim_utilization = 0.0;
  std::uint64_t fluid_completions = 0, sim_completions = 0;
  double fluid_energy_j = 0.0, sim_energy_j = 0.0;
  double fluid_carbon_g = 0.0, sim_carbon_g = 0.0;
  double fluid_p95_ms = 0.0, sim_p95_ms = 0.0;
};

TierComparison CompareTiers(int servers, double rho, std::uint64_t seed,
                            double duration_s) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const serving::Deployment base =
      serving::MakeBase(models::Application::kClassification, servers);
  const SimOptions options = MmcOptions(servers, rho, seed);

  MeanFieldSim fluid(base, zoo, &FlatTrace(), options);
  fluid.AdvanceTo(duration_s);
  ClusterSim sim(base, zoo, &FlatTrace(), options);
  sim.AdvanceTo(duration_s);

  TierComparison c;
  c.fluid_utilization =
      fluid.total_busy_seconds() / (servers * duration_s);
  c.sim_utilization = sim.total_busy_seconds() / (servers * duration_s);
  c.fluid_completions = fluid.total_completions();
  c.sim_completions = sim.total_completions();
  c.fluid_energy_j = fluid.total_energy_j();
  c.sim_energy_j = sim.total_energy_j();
  c.fluid_carbon_g = fluid.total_carbon_g();
  c.sim_carbon_g = sim.total_carbon_g();
  c.fluid_p95_ms = fluid.OverallP95Ms();
  c.sim_p95_ms = sim.OverallQuantileMs(0.95);
  return c;
}

TEST(MeanFieldDifferential, TracksTheSimulatorAcrossTheGrid) {
  const std::vector<int> server_grid = {1, 2, 4, 8};
  const std::vector<double> rho_grid = {0.35, 0.6, 0.8};
  std::uint64_t seed = 7000;
  for (int servers : server_grid) {
    for (double rho : rho_grid) {
      // Long enough that the simulator's empty-system transient and
      // Poisson noise are small against the documented bands.
      const double duration_s = 4.0 * 3600.0;
      const TierComparison c =
          CompareTiers(servers, rho, ++seed, duration_s);
      const std::string where =
          "c=" + std::to_string(servers) + " rho=" + std::to_string(rho);
      EXPECT_NEAR(c.fluid_utilization, c.sim_utilization, 0.02) << where;
      EXPECT_NEAR(static_cast<double>(c.fluid_completions),
                  static_cast<double>(c.sim_completions),
                  0.015 * static_cast<double>(c.sim_completions))
          << where;
      EXPECT_NEAR(c.fluid_energy_j, c.sim_energy_j,
                  0.025 * c.sim_energy_j)
          << where;
      EXPECT_NEAR(c.fluid_carbon_g, c.sim_carbon_g,
                  0.025 * c.sim_carbon_g)
          << where;
      EXPECT_NEAR(c.fluid_p95_ms, c.sim_p95_ms, 0.12 * c.sim_p95_ms)
          << where << " (fluid p95 " << c.fluid_p95_ms << " ms vs sim "
          << c.sim_p95_ms << " ms)";
    }
  }
}

TEST(MeanFieldSimTest, ConservesMass) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const serving::Deployment base =
      serving::MakeBase(models::Application::kClassification, 2);
  const SimOptions options = MmcOptions(2, 0.7, 1);
  MeanFieldSim fluid(base, zoo, &FlatTrace(), options);
  fluid.AdvanceTo(7200.0);
  // arrivals = completions + backlog, in mass. The integerized counters
  // may differ by the floor, never by more than one request plus backlog.
  const double arrivals = options.arrival_rate_qps * 7200.0;
  EXPECT_NEAR(static_cast<double>(fluid.total_arrivals()), arrivals, 1.0);
  EXPECT_NEAR(static_cast<double>(fluid.total_completions()) +
                  fluid.backlog(),
              arrivals, 1.0);
  EXPECT_EQ(fluid.windows().size(), 12u);
  EXPECT_EQ(fluid.steps(), 12u);
}

TEST(MeanFieldSimTest, RejectsFaultsAndBursts) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const serving::Deployment base =
      serving::MakeBase(models::Application::kClassification, 2);
  SimOptions faulty = MmcOptions(2, 0.5, 1);
  faulty.faults.gpu_faults.push_back({0, 100.0, 200.0});
  EXPECT_THROW(MeanFieldSim(base, zoo, &FlatTrace(), faulty),
               CheckError);
  SimOptions bursty = MmcOptions(2, 0.5, 1);
  bursty.burst.rate_multiplier = 2.0;
  EXPECT_THROW(MeanFieldSim(base, zoo, &FlatTrace(), bursty),
               CheckError);
}

TEST(MeanFieldSimTest, OverloadAccumulatesFiniteBacklogTail) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const serving::Deployment base =
      serving::MakeBase(models::Application::kClassification, 1);
  SimOptions options = MmcOptions(1, 1.5, 1);  // 150% of capacity
  MeanFieldSim fluid(base, zoo, &FlatTrace(), options);
  fluid.AdvanceTo(3600.0);
  EXPECT_GT(fluid.backlog(), 0.0);
  for (const WindowRecord& window : fluid.windows()) {
    EXPECT_TRUE(std::isfinite(window.p95_ms));
    EXPECT_GT(window.p95_ms, 0.0);
  }
  // Later windows carry more backlog, so the quoted drain tail grows —
  // overloaded configurations are ranked by how badly they fail.
  EXPECT_GT(fluid.windows().back().p95_ms, fluid.windows().front().p95_ms);
}

// The window's M/M/c terms are memoized on the exact offered rate. Under
// the rate schedule r1, r1, r2, r1 the second window reuses the first's
// terms and the last two evaluate afresh; every window's mean and p95 equal
// a direct evaluation of the jittered-service recipe at that window's rate.
TEST(MeanFieldSimTest, QueueingMemoMatchesDirectEvaluation) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const models::ModelFamily& family =
      zoo.ForApplication(models::Application::kClassification);
  const int servers = 2;  // BASE: one largest-variant instance per GPU
  const serving::Deployment base =
      serving::MakeBase(models::Application::kClassification, servers);
  const double service_ms =
      perf::PerfModel::LatencyMs(family, family.Largest(), mig::SliceType::k7g);
  const double mu = ServiceRatePerServer();
  const double window_s = 300.0;
  SimOptions options;  // jittered service, as in fleet regions
  options.window_seconds = window_s;
  const double r1 = 0.5 * servers * mu;
  const double r2 = 0.8 * servers * mu;
  const std::vector<double> rates = {r1, r1, r2, r1};
  // The tail cache keeps both rates: r1's return in window 3 is a hit.
  const std::vector<std::uint64_t> evaluations = {1, 1, 2, 2};

  options.arrival_rate_qps = r1;
  MeanFieldSim fluid(base, zoo, &FlatTrace(), options);
  for (std::size_t w = 0; w < rates.size(); ++w) {
    fluid.SetArrivalRate(rates[w]);
    fluid.AdvanceTo(window_s * static_cast<double>(w + 1));
    EXPECT_EQ(fluid.mmc_evaluations(), evaluations[w]) << "window " << w;
  }
  ASSERT_EQ(fluid.windows().size(), rates.size());

  const double sigma = options.service_jitter_sigma;
  const double wait_scale = 0.5 * (1.0 + sigma * sigma);
  analytic::MmcConfig mmc;
  mmc.servers = servers;
  mmc.service_rate = static_cast<double>(servers) / MsToSeconds(service_ms) /
                     static_cast<double>(servers);
  for (std::size_t w = 0; w < rates.size(); ++w) {
    SCOPED_TRACE(w);
    // Below capacity the window serves what arrived, all on one class.
    const double served = rates[w] * window_s;
    mmc.arrival_rate = served / window_s;
    const analytic::MmcMetrics metrics = analytic::AnalyzeMmc(mmc);
    const WindowRecord& window = fluid.windows()[w];
    EXPECT_EQ(window.mean_ms,
              served * service_ms / served +
                  SecondsToMs(metrics.mean_wait_s * wait_scale));
    EXPECT_EQ(window.p95_ms,
              service_ms * (1.0 + 1.64 * sigma) +
                  SecondsToMs(analytic::MmcWaitQuantile(mmc, 0.95) *
                              wait_scale));
  }
  EXPECT_EQ(fluid.windows()[3].mean_ms, fluid.windows()[0].mean_ms);
  EXPECT_NE(fluid.windows()[2].p95_ms, fluid.windows()[0].p95_ms);
}

void ExpectSameTail(const MmcTail& a, const MmcTail& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(bits(a.metrics.utilization), bits(b.metrics.utilization));
  EXPECT_EQ(bits(a.metrics.offered_load), bits(b.metrics.offered_load));
  EXPECT_EQ(bits(a.metrics.wait_probability),
            bits(b.metrics.wait_probability));
  EXPECT_EQ(bits(a.metrics.mean_wait_s), bits(b.metrics.mean_wait_s));
  EXPECT_EQ(bits(a.metrics.mean_sojourn_s), bits(b.metrics.mean_sojourn_s));
  EXPECT_EQ(bits(a.metrics.mean_queue_length),
            bits(b.metrics.mean_queue_length));
  EXPECT_EQ(bits(a.metrics.mean_in_system), bits(b.metrics.mean_in_system));
  EXPECT_EQ(bits(a.p95_s), bits(b.p95_s));
}

// The M/M/c tail cache (sim/queueing.h) the fluid fleet lends its regions:
// two simulators with the same classes at the same rate share one
// evaluation; a different lambda, mu, c or service model misses; and every
// tail it returns, hit or miss, equals a direct AnalyzeTail bit for bit.
TEST(MeanFieldSimTest, TailCacheSharesEvaluationsAndMatchesDirectTails) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  SimOptions options;
  options.window_seconds = 300.0;
  options.arrival_rate_qps = 0.6 * 2 * ServiceRatePerServer();
  const serving::Deployment two =
      serving::MakeBase(models::Application::kClassification, 2);
  MeanFieldSim first(two, zoo, &FlatTrace(), options);
  MeanFieldSim second(two, zoo, &FlatTrace(), options);
  MmcTailCache lent;
  first.AdvanceTo(600.0, &lent);
  EXPECT_EQ(lent.evaluations(), 1u);
  second.AdvanceTo(600.0, &lent);
  EXPECT_EQ(lent.evaluations(), 1u) << "same classes, same rate: one tail";
  EXPECT_EQ(first.mmc_evaluations(), 0u);  // neither used its own cache
  ASSERT_EQ(second.windows().size(), 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(first.windows()[1].p95_ms),
            std::bit_cast<std::uint64_t>(second.windows()[1].p95_ms));
  // Three servers at the same rate: another c and mu, another tail.
  MeanFieldSim third(
      serving::MakeBase(models::Application::kClassification, 3), zoo,
      &FlatTrace(), options);
  third.AdvanceTo(300.0, &lent);
  EXPECT_EQ(lent.evaluations(), 2u);

  const analytic::MmcConfig base{0.7 * 4 * ServiceRatePerServer(),
                                 ServiceRatePerServer(), 4};
  std::vector<std::pair<analytic::MmcConfig, ServiceModel>> keys;
  keys.emplace_back(base, ServiceModel::kJittered);
  keys.emplace_back(base, ServiceModel::kExponential);
  analytic::MmcConfig other = base;
  other.arrival_rate = std::nextafter(base.arrival_rate, 0.0);
  keys.emplace_back(other, ServiceModel::kJittered);
  other = base;
  other.service_rate = std::nextafter(base.service_rate, 1e9);
  keys.emplace_back(other, ServiceModel::kJittered);
  other = base;
  other.servers = 5;
  keys.emplace_back(other, ServiceModel::kJittered);
  MmcTailCache cache;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    SCOPED_TRACE(k);
    ExpectSameTail(cache.Get(keys[k].first, keys[k].second),
                   AnalyzeTail(keys[k].first, keys[k].second));
    EXPECT_EQ(cache.evaluations(), k + 1) << "a changed key must miss";
  }
  for (std::size_t k = 0; k < keys.size(); ++k) {
    SCOPED_TRACE(k);
    ExpectSameTail(cache.Get(keys[k].first, keys[k].second),
                   AnalyzeTail(keys[k].first, keys[k].second));
  }
  EXPECT_EQ(cache.evaluations(), keys.size()) << "repeats must hit";
  // Past its capacity the cache replaces entries and stays exact.
  for (int r = 1; r <= 40; ++r) {
    analytic::MmcConfig mmc = base;
    mmc.arrival_rate = base.arrival_rate * (0.2 + 0.02 * (r % 20));
    ExpectSameTail(cache.Get(mmc, ServiceModel::kJittered),
                   AnalyzeTail(mmc, ServiceModel::kJittered));
  }
  EXPECT_GT(cache.evaluations(), keys.size() + 20);
}

// Under a stable load the fluid tier and the surrogate quote the same
// steady-state latency (both collapse to the same aggregate M/M/c and call
// the same sim/analytic.h oracles).
TEST(MeanFieldSimTest, AgreesWithSurrogateAtSteadyState) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const int num_gpus = 4;
  const serving::Deployment base =
      serving::MakeBase(models::Application::kClassification, num_gpus);
  const double rate = 0.6 * num_gpus * ServiceRatePerServer();

  opt::SurrogateEvaluator::Options surrogate_options;
  surrogate_options.arrival_rate_qps = rate;
  surrogate_options.service_model = ServiceModel::kExponential;
  opt::SurrogateEvaluator surrogate(&zoo, num_gpus, surrogate_options);
  const opt::EvalOutcome steady =
      surrogate.Evaluate(graph::ConfigGraph::FromDeployment(base, zoo));

  SimOptions options;
  options.arrival_rate_qps = rate;
  options.window_seconds = 300.0;
  options.service_model = ServiceModel::kExponential;
  MeanFieldSim fluid(base, zoo, &FlatTrace(), options);
  fluid.AdvanceTo(options.window_seconds);
  ASSERT_EQ(fluid.windows().size(), 1u);
  const WindowRecord& window = fluid.windows().back();

  EXPECT_NEAR(window.p95_ms, steady.metrics.p95_ms,
              0.05 * steady.metrics.p95_ms);
  EXPECT_NEAR(window.weighted_accuracy, steady.metrics.accuracy, 0.5);
  // Energy recipes differ (the fluid tier integrates the static floor over
  // its window; the surrogate amortizes it at the offered rate), so only
  // sanity-bound the ratio.
  ASSERT_GT(window.completions, 0u);
  const double energy_per_request_j =
      window.energy_j / static_cast<double>(window.completions);
  EXPECT_GT(energy_per_request_j, 0.0);
  EXPECT_LT(energy_per_request_j, 10.0 * steady.metrics.energy_per_request_j);
}

// On a mixed deployment the two analytic tiers quote one tail (they call
// one recipe, sim/queueing.h) and neither reads below the simulator. Three
// fast small-ALBERT instances and one slow largest-ALBERT instance, all on
// [7g]: accuracy-greedy dispatch gives the slow class about a fifth of the
// load, so the service p95 is its latency — a dispatch-order walk would
// stop at the fast class and quote half the simulated tail.
TEST(MeanFieldSimTest, MixedDeploymentTailMatchesSurrogateAndSimulatorBound) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const models::Application app = models::Application::kLanguage;
  const int num_gpus = 4;
  serving::Deployment mixed = serving::MakeBase(app, num_gpus);
  for (int g = 1; g < num_gpus; ++g) mixed.gpus[g].variant_ordinals = {0};

  SimOptions options;  // jittered service
  options.window_seconds = 300.0;
  options.seed = 11;
  MeanFieldSim fluid(mixed, zoo, &FlatTrace(), options);
  options.arrival_rate_qps = 0.5 * fluid.capacity_qps();
  fluid.SetArrivalRate(options.arrival_rate_qps);
  fluid.AdvanceTo(options.window_seconds);
  ASSERT_EQ(fluid.windows().size(), 1u);
  const double fluid_p95 = fluid.windows().front().p95_ms;

  opt::SurrogateEvaluator::Options surrogate_options;
  surrogate_options.arrival_rate_qps = options.arrival_rate_qps;
  opt::SurrogateEvaluator surrogate(&zoo, num_gpus, surrogate_options);
  const double surrogate_p95 =
      surrogate.Evaluate(graph::ConfigGraph::FromDeployment(mixed, zoo))
          .metrics.p95_ms;
  EXPECT_NEAR(fluid_p95, surrogate_p95, 1e-9 * surrogate_p95);

  ClusterSim sim(mixed, zoo, &FlatTrace(), options);
  sim.AdvanceTo(300.0);
  const double sim_p95 = sim.Measure(3600.0).p95_ms;
  EXPECT_GE(fluid_p95, sim_p95) << "fluid p95 " << fluid_p95
                                << " ms vs simulated " << sim_p95 << " ms";
}

// Seeded property: whatever rate schedule the router throws at the fluid
// region — including overload and idle stretches — the aggregate state
// stays finite and non-negative, and no window goes NaN.
TEST(MeanFieldSimTest, RandomRateSchedulesKeepStateSane) {
  testing::prop::Config config;
  config.name = "meanfield-state-sane";
  config.seed = 99;
  config.iterations = 12;

  struct Schedule {
    int servers = 1;
    std::vector<double> rates;  // one per 300 s control interval
  };
  testing::prop::Domain<Schedule> domain;
  domain.generate = [](testing::prop::Gen& gen) {
    Schedule schedule;
    schedule.servers = static_cast<int>(gen.IntInRange(1, 8));
    const double capacity =
        schedule.servers * ServiceRatePerServer();
    const std::size_t intervals = gen.IntInRange(3, 16);
    for (std::size_t i = 0; i < intervals; ++i) {
      // 0 (idle) to 2x capacity (heavy overload).
      schedule.rates.push_back(gen.Uniform(0.0, 2.0 * capacity));
    }
    return schedule;
  };
  domain.describe = [](const Schedule& schedule) {
    std::ostringstream os;
    os << "servers=" << schedule.servers << " rates=[";
    for (double rate : schedule.rates) os << rate << " ";
    os << "]";
    return os.str();
  };

  const auto outcome = testing::prop::Check<Schedule>(
      config, domain,
      [](const Schedule& schedule) -> std::optional<std::string> {
        const models::ModelZoo& zoo = models::DefaultZoo();
        const serving::Deployment base = serving::MakeBase(
            models::Application::kClassification, schedule.servers);
        SimOptions options = MmcOptions(schedule.servers, 0.5, 1);
        options.arrival_rate_qps = schedule.rates[0];
        MeanFieldSim fluid(base, zoo, &FlatTrace(), options);
        double t = 0.0;
        for (double rate : schedule.rates) {
          fluid.SetArrivalRate(rate);
          t += 300.0;
          fluid.AdvanceTo(t);
        }
        if (!(fluid.backlog() >= 0.0) || !std::isfinite(fluid.backlog()))
          return "backlog " + std::to_string(fluid.backlog());
        if (fluid.total_completions() > fluid.total_arrivals())
          return "served more than arrived";
        if (!std::isfinite(fluid.total_energy_j()) ||
            fluid.total_energy_j() < 0.0)
          return "energy " + std::to_string(fluid.total_energy_j());
        for (const WindowRecord& window : fluid.windows()) {
          if (!std::isfinite(window.p95_ms) || window.p95_ms < 0.0)
            return "window p95 " + std::to_string(window.p95_ms);
          if (!std::isfinite(window.mean_ms) || window.mean_ms < 0.0)
            return "window mean " + std::to_string(window.mean_ms);
          if (!std::isfinite(window.carbon_g) || window.carbon_g < 0.0)
            return "window carbon " + std::to_string(window.carbon_g);
        }
        return std::nullopt;
      });
  EXPECT_TRUE(outcome.passed) << outcome.report;
}

// The fleet fast path against the discrete-event fleet: same config, BASE
// scheme, both routers. The fluid tier must land within the documented
// band on the fleet-level totals the campaign report consumes.
TEST(MeanFieldFleetTest, TracksDiscreteEventFleet) {
  for (const fleet::RouterPolicy router :
       {fleet::RouterPolicy::kStatic, fleet::RouterPolicy::kCarbonGreedy}) {
    fleet::FleetConfig config;
    config.app = models::Application::kClassification;
    config.regions =
        fleet::RegionsFromPresets({"us-west", "ap-northeast"}, 2);
    config.duration_hours = 2.0;
    config.scheme = core::Scheme::kBase;
    config.router = router;
    config.seed = 5;

    const models::ModelZoo& zoo = models::DefaultZoo();
    const fleet::FleetReport reference = fleet::RunFleet(config, zoo);
    const fleet::FleetReport fluid = fleet::RunFleetMeanField(config, zoo);

    const std::string where =
        std::string("router=") + fleet::RouterPolicyName(router);
    EXPECT_EQ(fluid.regions.size(), reference.regions.size()) << where;
    EXPECT_EQ(fluid.fleet.windows.size(), reference.fleet.windows.size())
        << where;
    const auto close = [&](double fluid_value, double reference_value,
                           double band, const char* what) {
      EXPECT_NEAR(fluid_value, reference_value,
                  band * std::abs(reference_value))
          << where << " " << what;
    };
    close(static_cast<double>(fluid.fleet.completions),
          static_cast<double>(reference.fleet.completions), 0.05,
          "completions");
    close(fluid.fleet.total_energy_j, reference.fleet.total_energy_j, 0.05,
          "energy");
    close(fluid.fleet.total_carbon_g, reference.fleet.total_carbon_g, 0.05,
          "carbon");
    close(fluid.fleet.weighted_accuracy, reference.fleet.weighted_accuracy,
          0.01, "accuracy");
    close(fluid.fleet.overall_p95_ms, reference.fleet.overall_p95_ms, 0.25,
          "p95");
  }
}

fleet::FleetConfig FluidFleet(int threads) {
  fleet::FleetConfig config;
  config.app = models::Application::kClassification;
  config.regions = fleet::RegionsFromPresets(
      {"us-west", "us-east", "eu-west", "ap-northeast"}, 2);
  config.regions[1].outage_start_s = 1200.0;
  config.regions[1].outage_end_s = 2400.0;
  config.duration_hours = 1.0;
  config.scheme = core::Scheme::kBase;
  config.router = fleet::RouterPolicy::kCarbonGreedy;
  config.seed = 11;
  config.threads = threads;
  return config;
}

// Determinism: the fluid tier is pure arithmetic and the shared fleet loop
// folds regions in index order, so runs are bit-identical — repeated (the
// campaign resume/dedup contract) and at any thread count (the loop fans
// fluid regions out over the pool).
TEST(MeanFieldFleetTest, RunsAreBitIdenticalAtAnyThreadCount) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const fleet::FleetReport reference =
      fleet::RunFleetMeanField(FluidFleet(1), zoo);
  EXPECT_GT(reference.fleet.completions, 0u);
  for (const int threads : {1, 2, 8}) {
    EXPECT_TRUE(fleet::FleetReportsBitIdentical(
        reference, fleet::RunFleetMeanField(FluidFleet(threads), zoo)))
        << threads << " threads";
  }
}

// A run that ends a hair before a control boundary clips its last
// boundary to the end, so the fleet snapshots its fluid regions inside a
// window there; that snapshot reads the trace at the clipped instant.
TEST(MeanFieldFleetTest, RunEndingJustBeforeABoundaryStepsToTheEnd) {
  fleet::FleetConfig config = FluidFleet(1);
  config.duration_hours = 0.49999999999999994;
  const double end_s = HoursToSeconds(config.duration_hours);
  ASSERT_LT(end_s, 1800.0);
  ASSERT_EQ(core::ControlBoundaries(config.control_interval_s, end_s).size(),
            6u);
  const fleet::FleetReport report =
      fleet::RunFleetMeanField(config, models::DefaultZoo());
  EXPECT_EQ(report.weight_history.size(), 7u);
  EXPECT_EQ(report.fleet.windows.size(), 6u);
}

// The fleet folds each control interval's windows at the barrier, so fluid
// region reports keep no window series: only the objective series, one
// entry per window the region closed.
TEST(MeanFieldFleetTest, RegionReportsKeepNoWindowSeries) {
  const fleet::FleetReport report =
      fleet::RunFleetMeanField(FluidFleet(2), models::DefaultZoo());
  const std::size_t closed = 12;  // 1 h of 300 s windows
  EXPECT_EQ(report.fleet.windows.size(), closed);
  EXPECT_EQ(report.fleet.objective_series.size(), closed);
  for (const fleet::RegionReport& region : report.regions) {
    EXPECT_TRUE(region.report.windows.empty()) << region.name;
    EXPECT_EQ(region.report.objective_series.size(), closed) << region.name;
  }
}

// The fluid tier has no per-region controller and no fault model: adaptive
// schemes and region fault schedules are rejected up front.
TEST(MeanFieldFleetTest, RejectsAdaptiveSchemesAndRegionFaults) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  fleet::FleetConfig clover = FluidFleet(1);
  clover.scheme = core::Scheme::kClover;
  EXPECT_THROW(fleet::RunFleetMeanField(clover, zoo), CheckError);

  fleet::FleetConfig faulty = FluidFleet(1);
  faulty.regions[2].faults.gpu_faults.push_back({0, 600.0, 1200.0});
  EXPECT_THROW(fleet::RunFleetMeanField(faulty, zoo), CheckError);
}

}  // namespace
}  // namespace clover::sim
