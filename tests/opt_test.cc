// Tests for the objective (including the paper's Fig. 6 worked example),
// the evaluators, simulated annealing, and Blover's random search.
#include <gtest/gtest.h>

#include "carbon/trace.h"
#include "common/units.h"
#include "graph/neighbors.h"
#include "opt/annealing.h"
#include "opt/evaluator.h"
#include "opt/objective.h"
#include "opt/random_search.h"
#include "opt/surrogate.h"
#include "sim/arrivals.h"
#include "sim/cluster_sim.h"

namespace clover::opt {
namespace {

using models::Application;
using models::DefaultZoo;

// --- Objective (Eqs. 1-3, 6) ---

// The paper's Fig. 6 example uses abstract energy units E with
// dCarbon = (Cbase - E*ci)/Cbase; our EvalMetrics stores joules and applies
// unit conversion + PUE, so express the example through a metrics value
// that makes E*ci come out in grams directly: pue=1, energy such that
// CarbonGrams(energy, ci, 1) == E*ci, i.e. energy = E kWh in joules.
EvalMetrics Fig6Metrics(double e_units, double accuracy) {
  EvalMetrics m;
  m.energy_per_request_j = KwhToJoules(e_units);
  m.accuracy = accuracy;
  m.p95_ms = 10.0;
  return m;
}

ObjectiveParams Fig6Params() {
  ObjectiveParams params;
  params.lambda = 0.1;
  params.a_base = 100.0;  // so accuracy 96 => dAccuracy = -4%
  params.c_base_g = 1000.0;
  params.l_tail_ms = 100.0;
  params.pue = 1.0;
  return params;
}

TEST(Objective, Fig6ConfigAAtHighIntensity) {
  // Config A: E=0.4, dAccuracy=-4. At ci=500: dCarbon = (1000-200)/1000 =
  // 80%, objective = 0.1*80 + 0.9*(-4) = 4.4 (paper's printed value).
  const EvalMetrics a = Fig6Metrics(0.4, 96.0);
  const ObjectiveParams params = Fig6Params();
  EXPECT_NEAR(DeltaCarbonPct(a, params, 500.0), 80.0, 1e-9);
  EXPECT_NEAR(DeltaAccuracyPct(a, params), -4.0, 1e-9);
  EXPECT_NEAR(ObjectiveF(a, params, 500.0), 4.4, 1e-9);
}

TEST(Objective, Fig6ConfigAAtLowIntensity) {
  // At ci=100: dCarbon = (1000-40)/1000 = 96%, objective = 9.6 - 3.6 = 6.0.
  const EvalMetrics a = Fig6Metrics(0.4, 96.0);
  EXPECT_NEAR(ObjectiveF(a, Fig6Params(), 100.0), 6.0, 1e-9);
}

TEST(Objective, Fig6ConfigBAtLowIntensity) {
  // Config B: E=1.2, dAccuracy=-2. At ci=100: dCarbon = (1000-120)/1000 =
  // 88%, objective = 8.8 - 1.8 = 7.0 (paper's printed value).
  const EvalMetrics b = Fig6Metrics(1.2, 98.0);
  EXPECT_NEAR(ObjectiveF(b, Fig6Params(), 100.0), 7.0, 1e-9);
}

TEST(Objective, Fig6PreferenceFlipsWithIntensity) {
  // The figure's point: A wins at ci=500, B wins at ci=100. (Note the
  // paper's printed objective for B at ci=500 is 3.2; Eq. 3 actually gives
  // 0.1*40 + 0.9*(-2) = 2.2 — a typo in the figure; the preference order
  // is unaffected. Recorded in EXPERIMENTS.md.)
  const EvalMetrics a = Fig6Metrics(0.4, 96.0);
  const EvalMetrics b = Fig6Metrics(1.2, 98.0);
  const ObjectiveParams params = Fig6Params();
  EXPECT_GT(ObjectiveF(a, params, 500.0), ObjectiveF(b, params, 500.0));
  EXPECT_LT(ObjectiveF(a, params, 100.0), ObjectiveF(b, params, 100.0));
  EXPECT_NEAR(ObjectiveF(b, params, 500.0), 2.2, 1e-9);
}

TEST(Objective, AnnealEnergyIsNegatedFWhenSlaMet) {
  EXPECT_DOUBLE_EQ(AnnealEnergyH(5.0, 50.0, 100.0), -5.0);
  EXPECT_DOUBLE_EQ(AnnealEnergyH(-3.0, 50.0, 100.0), 3.0);
}

TEST(Objective, AnnealEnergyPunishesSlaViolation) {
  // f > 0 and L = 2x Ltail: h = -f * 0.5 > -f (worse for the minimizer).
  EXPECT_DOUBLE_EQ(AnnealEnergyH(5.0, 200.0, 100.0), -2.5);
  EXPECT_GT(AnnealEnergyH(5.0, 200.0, 100.0), AnnealEnergyH(5.0, 50.0, 100.0));
}

TEST(Objective, AccuracyThresholdPenalty) {
  ObjectiveParams params = Fig6Params();
  params.max_accuracy_loss_pct = 1.0;
  const EvalMetrics within = Fig6Metrics(0.4, 99.5);   // loss 0.5%
  const EvalMetrics beyond = Fig6Metrics(0.4, 96.0);   // loss 4%
  // Within the limit: no penalty (same as the unconstrained objective).
  ObjectiveParams unconstrained = Fig6Params();
  EXPECT_DOUBLE_EQ(ObjectiveF(within, params, 100.0),
                   ObjectiveF(within, unconstrained, 100.0));
  // Beyond: penalized by threshold_penalty * excess = 200 * 3 = 600.
  EXPECT_NEAR(ObjectiveF(beyond, params, 100.0),
              ObjectiveF(beyond, unconstrained, 100.0) - 600.0, 1e-9);
}

TEST(Objective, MeetsSla) {
  ObjectiveParams params = Fig6Params();
  EXPECT_TRUE(MeetsSla(Fig6Metrics(1.0, 90.0), params));
  EvalMetrics slow = Fig6Metrics(1.0, 90.0);
  slow.p95_ms = 101.0;
  EXPECT_FALSE(MeetsSla(slow, params));
}

// --- Evaluators ---

struct TestHarness {
  carbon::CarbonTrace trace{"flat", 3600.0, std::vector<double>(200, 200.0)};
  serving::Deployment base;
  double rate;
  sim::ClusterSim sim;
  graph::GraphMapper mapper;

  explicit TestHarness(int gpus = 4)
      : base(serving::MakeBase(Application::kClassification, gpus)),
        rate(sim::SizeArrivalRate(DefaultZoo(), Application::kClassification,
                                  gpus, 0.75)),
        sim(base, DefaultZoo(), &trace, MakeOptions(rate)),
        mapper(&DefaultZoo(), gpus) {}

  static sim::SimOptions MakeOptions(double rate) {
    sim::SimOptions options;
    options.arrival_rate_qps = rate;
    options.window_seconds = 300.0;
    options.seed = 17;
    return options;
  }
};

TEST(SimEvaluator, MeasuresDeployedConfiguration) {
  TestHarness h;
  SimEvaluator::Options options;
  options.measure_window_s = 30.0;
  options.l_tail_ms = 200.0;
  SimEvaluator evaluator(&h.sim, &h.mapper, options);
  const graph::ConfigGraph base_graph =
      graph::ConfigGraph::FromDeployment(h.base, DefaultZoo());
  const EvalOutcome outcome = evaluator.Evaluate(base_graph);
  EXPECT_GT(outcome.metrics.accuracy, 84.0);  // all-B7
  EXPECT_GT(outcome.metrics.energy_per_request_j, 0.0);
  EXPECT_GT(outcome.cost_seconds, 0.0);
  EXPECT_FALSE(outcome.from_cache);
}

TEST(CachingEvaluator, SecondLookupIsFree) {
  TestHarness h;
  SimEvaluator::Options options;
  options.measure_window_s = 30.0;
  options.l_tail_ms = 200.0;
  SimEvaluator inner(&h.sim, &h.mapper, options);
  CachingEvaluator cache(&inner);
  const graph::ConfigGraph g =
      graph::ConfigGraph::FromDeployment(h.base, DefaultZoo());
  const EvalOutcome first = cache.Evaluate(g);
  const EvalOutcome second = cache.Evaluate(g);
  EXPECT_FALSE(first.from_cache);
  EXPECT_TRUE(second.from_cache);
  EXPECT_DOUBLE_EQ(second.cost_seconds, 0.0);
  EXPECT_DOUBLE_EQ(second.metrics.accuracy, first.metrics.accuracy);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

// The closed-form surrogate at a fixed offered rate: zero evaluation cost
// and no noise, so the search tests below isolate the search logic.
SurrogateEvaluator Surrogate(int gpus, double rate, double l_tail_ms) {
  SurrogateEvaluator::Options options;
  options.arrival_rate_qps = rate;
  options.l_tail_ms = l_tail_ms;
  return SurrogateEvaluator(&DefaultZoo(), gpus, options);
}

TEST(SurrogateEvaluator, MatchesSimulatorToFirstOrder) {
  TestHarness h;
  SurrogateEvaluator surrogate = Surrogate(4, h.rate, 200.0);
  SimEvaluator::Options options;
  options.measure_window_s = 120.0;
  options.l_tail_ms = 200.0;
  SimEvaluator simulated(&h.sim, &h.mapper, options);
  const graph::ConfigGraph g =
      graph::ConfigGraph::FromDeployment(h.base, DefaultZoo());
  h.sim.AdvanceTo(300.0);  // warm up
  const EvalOutcome sim_outcome = simulated.Evaluate(g);
  const EvalOutcome surrogate_outcome = surrogate.Evaluate(g);
  EXPECT_NEAR(surrogate_outcome.metrics.accuracy, sim_outcome.metrics.accuracy,
              0.5);
  EXPECT_NEAR(surrogate_outcome.metrics.energy_per_request_j,
              sim_outcome.metrics.energy_per_request_j,
              0.3 * sim_outcome.metrics.energy_per_request_j);
}

TEST(SurrogateEvaluator, OverloadDetected) {
  SurrogateEvaluator surrogate = Surrogate(1, 1000.0, 200.0);
  graph::ConfigGraph g(Application::kClassification, 4);
  g.SetWeight(3, mig::SliceType::k7g, 1);  // one B7 can't do 1000 qps
  const EvalOutcome outcome = surrogate.Evaluate(g);
  EXPECT_FALSE(outcome.sla_ok);
  EXPECT_GT(outcome.metrics.p95_ms, 1e5);
}

// --- Simulated annealing & random search (on the surrogate for speed and
// determinism) ---

ObjectiveParams ClassificationParams(double rate) {
  // Build params from the surrogate's BASE point.
  SurrogateEvaluator surrogate = Surrogate(10, rate, 1e9);
  graph::ConfigGraph base(Application::kClassification, 4);
  base.SetWeight(3, mig::SliceType::k7g, 10);
  const EvalOutcome outcome = surrogate.Evaluate(base);
  ObjectiveParams params;
  params.lambda = 0.5;
  params.a_base = outcome.metrics.accuracy;
  params.c_base_g =
      CarbonGrams(outcome.metrics.energy_per_request_j, 250.0, 1.5);
  params.l_tail_ms = outcome.metrics.p95_ms * 1.1;
  params.pue = 1.5;
  return params;
}

TEST(SimulatedAnnealing, ImprovesOverBaseAtHighIntensity) {
  const double rate =
      sim::SizeArrivalRate(DefaultZoo(), Application::kClassification, 10,
                           0.75);
  const ObjectiveParams params = ClassificationParams(rate);
  SurrogateEvaluator evaluator = Surrogate(10, rate, params.l_tail_ms);
  CachingEvaluator cache(&evaluator);
  graph::GraphMapper mapper(&DefaultZoo(), 10);
  graph::NeighborSampler sampler(&mapper, 23);
  SimulatedAnnealing::Options options;
  options.time_budget_s = 1e9;     // surrogate evals cost 0 time
  options.no_improve_limit = 40;   // let it search
  options.max_evaluations = 400;
  SimulatedAnnealing annealer(&cache, &sampler, options, 23);

  graph::ConfigGraph base(Application::kClassification, 4);
  base.SetWeight(3, mig::SliceType::k7g, 10);
  const SearchResult result = annealer.Run(base, params, 300.0);

  EXPECT_TRUE(result.best_sla_ok);
  // At high intensity the base objective is ~0 + small; SA must find
  // something strictly better (partitioned / mixed-quality).
  const double base_f =
      ObjectiveF(cache.Evaluate(base).metrics, params, 300.0);
  EXPECT_GT(result.best_f, base_f + 5.0);
  EXPECT_GE(result.evaluations.size(), 5u);
}

TEST(SimulatedAnnealing, TimeBudgetRespected) {
  const double rate = 100.0;
  const ObjectiveParams params = ClassificationParams(rate);
  // Wrap the surrogate to charge 10 s per evaluation.
  class CostlyEvaluator : public Evaluator {
   public:
    explicit CostlyEvaluator(Evaluator* inner) : inner_(inner) {}
    EvalOutcome Evaluate(const graph::ConfigGraph& g) override {
      EvalOutcome outcome = inner_->Evaluate(g);
      outcome.cost_seconds = 10.0;
      return outcome;
    }
    Evaluator* inner_;
  };
  SurrogateEvaluator surrogate = Surrogate(10, rate, params.l_tail_ms);
  CostlyEvaluator costly(&surrogate);
  graph::GraphMapper mapper(&DefaultZoo(), 10);
  graph::NeighborSampler sampler(&mapper, 31);
  SimulatedAnnealing::Options options;
  options.time_budget_s = 95.0;  // fits at most ceil(95/10)=10 evals
  options.no_improve_limit = 1000;
  SimulatedAnnealing annealer(&costly, &sampler, options, 31);
  graph::ConfigGraph base(Application::kClassification, 4);
  base.SetWeight(3, mig::SliceType::k7g, 10);
  const SearchResult result = annealer.Run(base, params, 200.0);
  EXPECT_LE(result.evaluations.size(), 11u);
  EXPECT_GE(result.elapsed_seconds, 95.0);
}

TEST(SimulatedAnnealing, NoImproveTermination) {
  const double rate = 100.0;
  const ObjectiveParams params = ClassificationParams(rate);
  SurrogateEvaluator surrogate = Surrogate(10, rate, params.l_tail_ms);
  graph::GraphMapper mapper(&DefaultZoo(), 10);
  graph::NeighborSampler sampler(&mapper, 37);
  SimulatedAnnealing::Options options;
  options.time_budget_s = 1e9;
  options.no_improve_limit = 5;
  SimulatedAnnealing annealer(&surrogate, &sampler, options, 37);
  graph::ConfigGraph base(Application::kClassification, 4);
  base.SetWeight(3, mig::SliceType::k7g, 10);
  const SearchResult result = annealer.Run(base, params, 200.0);
  // The run must stop within a bounded number of evaluations; the final 5
  // evaluations found nothing better.
  ASSERT_GE(result.evaluations.size(), 6u);
  EXPECT_LT(result.evaluations.size(), 400u);
}

TEST(RandomSearch, SamplesFeasibleConfigurations) {
  graph::GraphMapper mapper(&DefaultZoo(), 6);
  SurrogateEvaluator surrogate = Surrogate(6, 100.0, 1e9);
  RandomSearch::Options options;
  RandomSearch search(&surrogate, &mapper, options, 41);
  for (int i = 0; i < 100; ++i) {
    const graph::ConfigGraph g =
        search.SampleConfiguration(Application::kLanguage);
    EXPECT_TRUE(mapper.IsFeasible(g));
    EXPECT_GE(g.TotalInstances(), 1);
    EXPECT_LE(g.TotalInstances(), 42);
  }
}

TEST(RandomSearch, FindsImprovementsButLessEfficiently) {
  const double rate =
      sim::SizeArrivalRate(DefaultZoo(), Application::kClassification, 10,
                           0.75);
  const ObjectiveParams params = ClassificationParams(rate);
  SurrogateEvaluator evaluator = Surrogate(10, rate, params.l_tail_ms);
  graph::GraphMapper mapper(&DefaultZoo(), 10);
  RandomSearch::Options options;
  options.time_budget_s = 1e9;
  options.no_improve_limit = 30;
  options.max_evaluations = 300;
  RandomSearch search(&evaluator, &mapper, options, 43);
  graph::ConfigGraph base(Application::kClassification, 4);
  base.SetWeight(3, mig::SliceType::k7g, 10);
  const SearchResult result = search.Run(base, params, 300.0);
  EXPECT_GE(result.evaluations.size(), 5u);
  // Random search still improves over BASE eventually...
  const double base_f = result.evaluations.front().f;
  EXPECT_GT(result.best_f, base_f);
}

}  // namespace
}  // namespace clover::opt
