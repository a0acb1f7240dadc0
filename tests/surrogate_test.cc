// SurrogateEvaluator (opt/surrogate.h) differential + screening tests.
//
// The surrogate is the fast fidelity tier of screen-then-simulate: it is
// allowed to be approximate (it only ranks candidates) but it must not be
// *systematically* wrong about the p95 tail, or the screen would discard
// exactly the configurations the simulation tier should see. The
// differential gate here sweeps the same (c, rho) grid as
// sim_differential_test.cc — a BASE deployment of c full-GPU instances
// under ServiceModel::kExponential is exactly the M/M/c queue the
// surrogate's closed-form sojourn quantile models — and bounds the
// surrogate-vs-simulated p95 gap. The screening tests pin the contract the
// searches rely on: SLA-first ranking, survivors in sampling order, a
// deterministic screen, and surrogate outcomes never leaking into results.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/units.h"
#include "graph/config_graph.h"
#include "models/zoo.h"
#include "opt/evaluator.h"
#include "opt/random_search.h"
#include "opt/surrogate.h"
#include "perf/perf_model.h"
#include "serving/deployment.h"
#include "sim/arrivals.h"
#include "sim/cluster_sim.h"

namespace clover::opt {
namespace {

using models::Application;

double ServiceRatePerServer() {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const models::ModelFamily& family =
      zoo.ForApplication(Application::kClassification);
  return 1.0 / MsToSeconds(perf::PerfModel::LatencyMs(
                   family, family.Largest(), mig::SliceType::k7g));
}

// Simulated p95 sojourn over ~target_completions post-warmup requests for
// an M/M/c BASE cluster (the sim_differential_test.cc setup).
double SimulatedP95Ms(int servers, double rho, std::uint64_t seed,
                      double target_completions) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const double mu = ServiceRatePerServer();
  const double lambda = rho * servers * mu;

  static const carbon::CarbonTrace kFlat("surrogate-flat", 3600.0,
                                         std::vector<double>(4000, 250.0));
  sim::SimOptions options;
  options.arrival_rate_qps = lambda;
  options.seed = seed;
  options.window_seconds = 600.0;
  options.service_model = sim::ServiceModel::kExponential;
  sim::ClusterSim sim(
      serving::MakeBase(Application::kClassification, servers), zoo, &kFlat,
      options);
  // The run-level histogram includes the warmup, but the transient from an
  // empty start only *shortens* latencies; with >= 200k post-warmup samples
  // its weight is negligible at the histogram's own resolution.
  sim.AdvanceTo(3000.0 / lambda + 50.0 / mu + target_completions / lambda);
  return sim.OverallQuantileMs(0.95);
}

double SurrogateP95Ms(int servers, double rho) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const double mu = ServiceRatePerServer();
  SurrogateEvaluator::Options options;
  options.arrival_rate_qps = rho * servers * mu;
  options.service_model = sim::ServiceModel::kExponential;
  SurrogateEvaluator surrogate(&zoo, servers, options);
  const graph::ConfigGraph base = graph::ConfigGraph::FromDeployment(
      serving::MakeBase(Application::kClassification, servers), zoo);
  return surrogate.Evaluate(base).metrics.p95_ms;
}

TEST(SurrogateDifferential, P95MatchesSimulatorAcrossTheGrid) {
  // Same grid as the simulator-vs-oracle gate. Tolerance: the simulated
  // p95 carries the log-histogram bin width (~2.3% relative) plus tail
  // sampling noise at 200k completions; 10% relative catches a systematic
  // tail bias (e.g. a wrong wait-probability mix) with room to spare.
  const std::vector<int> server_grid = {1, 2, 4, 8};
  const std::vector<double> rho_grid = {0.35, 0.6, 0.8};
  std::uint64_t seed = 5000;
  for (int servers : server_grid) {
    for (double rho : rho_grid) {
      const double simulated =
          SimulatedP95Ms(servers, rho, ++seed, 200000.0);
      const double analytic = SurrogateP95Ms(servers, rho);
      EXPECT_NEAR(analytic, simulated, 0.10 * simulated)
          << "c=" << servers << " rho=" << rho << " (surrogate " << analytic
          << " ms vs sim " << simulated << " ms)";
    }
  }
  // High-load corners: longer, autocorrelated tails -> a wider band.
  for (int servers : {1, 4}) {
    const double simulated = SimulatedP95Ms(servers, 0.9, ++seed, 400000.0);
    const double analytic = SurrogateP95Ms(servers, 0.9);
    EXPECT_NEAR(analytic, simulated, 0.15 * simulated)
        << "c=" << servers << " rho=0.9";
  }
}

TEST(SurrogateEvaluatorTest, OverloadedConfigurationGetsTheSentinel) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  SurrogateEvaluator::Options options;
  options.arrival_rate_qps =
      4.0 * sim::SizeArrivalRate(zoo, Application::kClassification, 1);
  options.l_tail_ms = 100.0;
  SurrogateEvaluator surrogate(&zoo, 1, options);
  const graph::ConfigGraph tiny = graph::ConfigGraph::FromDeployment(
      serving::MakeBase(Application::kClassification, 1), zoo);
  const EvalOutcome outcome = surrogate.Evaluate(tiny);
  EXPECT_FALSE(outcome.sla_ok);
  EXPECT_GE(outcome.metrics.p95_ms, 1e6);
  EXPECT_EQ(outcome.metrics.accuracy, 0.0);
}

// --------------------------------------------------------------------------
// Screening contract.
// --------------------------------------------------------------------------

TEST(ScreenCandidatesTest, PrefersSlaCompliantAndKeepsSamplingOrder) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  // Rate sized for 4 GPUs: the 1-GPU candidate is overloaded (sentinel,
  // sla_ok=false), the 4-GPU candidates are compliant.
  SurrogateEvaluator::Options options;
  options.arrival_rate_qps =
      sim::SizeArrivalRate(zoo, Application::kClassification, 4);
  options.l_tail_ms = 1e9;
  SurrogateEvaluator surrogate(&zoo, 4, options);

  const graph::ConfigGraph overloaded = graph::ConfigGraph::FromDeployment(
      serving::MakeBase(Application::kClassification, 1), zoo);
  const graph::ConfigGraph base = graph::ConfigGraph::FromDeployment(
      serving::MakeBase(Application::kClassification, 4), zoo);
  const graph::ConfigGraph co2opt = graph::ConfigGraph::FromDeployment(
      serving::MakeCo2Opt(Application::kClassification, 4, zoo), zoo);

  ObjectiveParams params;
  params.a_base = 80.0;
  params.c_base_g = 1.0;
  params.l_tail_ms = 1e9;
  const std::vector<graph::ConfigGraph> pool{overloaded, base, co2opt};

  // keep >= pool: everything survives untouched.
  EXPECT_EQ(ScreenCandidates(&surrogate, pool, params, 250.0, 3).size(), 3u);

  // keep = 2: the overloaded candidate is the one screened out, and the
  // survivors come back in sampling order (ascending indices).
  const std::vector<std::size_t> survivors =
      ScreenCandidates(&surrogate, pool, params, 250.0, 2);
  ASSERT_EQ(survivors.size(), 2u);
  EXPECT_EQ(survivors[0], 1u);
  EXPECT_EQ(survivors[1], 2u);

  // Deterministic: same inputs, same survivors.
  EXPECT_EQ(ScreenCandidates(&surrogate, pool, params, 250.0, 2), survivors);
}

// Replay-evaluator search context (the opt_parallel_test.cc recipe).
struct ScreenContext {
  const models::ModelZoo* zoo;
  carbon::CarbonTrace trace;
  ReplayEvaluator::Options replay;
  ObjectiveParams params;
  graph::ConfigGraph start;
  static constexpr int kGpus = 2;
  static constexpr std::uint64_t kSeed = 23;
  static constexpr double kCi = 250.0;

  ScreenContext()
      : zoo(&models::DefaultZoo()),
        trace("flat", 3600.0, std::vector<double>(4, 250.0)),
        start(Application::kClassification, kGpus) {
    replay.arrival_rate_qps =
        sim::SizeArrivalRate(*zoo, Application::kClassification, kGpus);
    replay.settle_s = 1.0;
    replay.measure_window_s = 3.0;
    replay.seed = kSeed;
    start = graph::ConfigGraph::FromDeployment(
        serving::MakeBase(Application::kClassification, kGpus), *zoo);
    replay = ReplayEvaluator::CalibrateAgainst(zoo, &trace, kGpus, start,
                                               replay, kCi, &params);
  }

  SearchResult RunScreened(int screen_factor, int threads,
                           bool install_surrogate = true) {
    ReplayEvaluator evaluator(zoo, &trace, kGpus, replay);
    graph::GraphMapper mapper(zoo, kGpus);
    SurrogateEvaluator surrogate(
        zoo, kGpus,
        SurrogateEvaluator::FromReplay(replay, sim::ServiceModel::kJittered,
                                       perf::kServiceJitterSigma));
    RandomSearch::Options options;
    options.max_evaluations = 24;
    options.no_improve_limit = 1 << 30;
    options.time_budget_s = 1e12;
    options.batch_size = 8;
    options.screen_factor = screen_factor;
    RandomSearch search(&evaluator, &mapper, options, kSeed);
    if (install_surrogate) search.SetSurrogate(&surrogate);

    ThreadPool pool(threads);
    std::vector<std::unique_ptr<Evaluator>> replicas;
    for (int i = 0; i < threads; ++i)
      replicas.push_back(
          std::make_unique<ReplayEvaluator>(zoo, &trace, kGpus, replay));
    ParallelBatchEvaluator batch(&pool, std::move(replicas));
    search.SetBatchEvaluator(&batch);
    return search.Run(start, params, kCi);
  }
};

TEST(ScreenedSearchTest, DeterministicAcrossThreadCounts) {
  ScreenContext context;
  const SearchResult serial = context.RunScreened(/*screen_factor=*/4, 1);
  const SearchResult parallel = context.RunScreened(/*screen_factor=*/4, 2);
  EXPECT_TRUE(SearchResultsBitIdentical(serial, parallel));
  EXPECT_GT(serial.screened, 0);
}

TEST(ScreenedSearchTest, ScreenedCountMatchesTheOversampling) {
  // Every proposal round draws screen_factor x round candidates and keeps
  // round of them, so the discard count is exactly (factor - 1) x the
  // number of non-seed evaluations.
  ScreenContext context;
  const SearchResult result = context.RunScreened(/*screen_factor=*/4, 1);
  const int simulated = static_cast<int>(result.evaluations.size()) - 1;
  EXPECT_EQ(result.screened, 3 * simulated);
}

TEST(ScreenedSearchTest, FactorOneMatchesTheUnscreenedSearch) {
  // screen_factor = 1 with a surrogate installed must be a no-op: same
  // samples, same evaluations, same best, zero screened.
  ScreenContext context;
  const SearchResult screened = context.RunScreened(/*screen_factor=*/1, 1);
  const SearchResult plain =
      context.RunScreened(/*screen_factor=*/1, 1, /*install_surrogate=*/false);
  EXPECT_TRUE(SearchResultsBitIdentical(screened, plain));
  EXPECT_EQ(screened.screened, 0);
}

TEST(ScreenedSearchTest, BestOutcomeComesFromTheSimulationTier) {
  // The surrogate only ranks; the winner's metrics must be one of the
  // recorded (simulated) evaluations, bit for bit.
  ScreenContext context;
  const SearchResult result = context.RunScreened(/*screen_factor=*/4, 1);
  bool found = false;
  for (const EvalRecord& record : result.evaluations) {
    if (record.f == result.best_f &&
        record.metrics.p95_ms == result.best_metrics.p95_ms &&
        record.graph == result.best) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace clover::opt
