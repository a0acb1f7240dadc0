#include "opt/evaluator.h"

#include "common/check.h"

namespace clover::opt {

EvalMetrics MetricsOf(const sim::Measurement& measurement) {
  EvalMetrics metrics;
  metrics.accuracy = measurement.weighted_accuracy;
  metrics.energy_per_request_j = measurement.energy_per_request_j;
  metrics.p95_ms = measurement.p95_ms;
  return metrics;
}

SimEvaluator::SimEvaluator(sim::ClusterSim* sim, graph::GraphMapper* mapper,
                           const Options& options)
    : sim_(sim), mapper_(mapper), options_(options) {
  CLOVER_CHECK(sim_ != nullptr && mapper_ != nullptr);
  CLOVER_CHECK(options_.measure_window_s > 0.0);
  CLOVER_CHECK(options_.l_tail_ms > 0.0);
}

EvalOutcome SimEvaluator::Evaluate(const graph::ConfigGraph& graph) {
  const serving::Deployment anchor = sim_->deployment();
  const auto deployment = mapper_->ToDeployment(graph, &anchor);
  CLOVER_CHECK_MSG(deployment.has_value(),
                   "evaluating an infeasible configuration graph");

  const double start = sim_->now();
  const double ready = sim_->ApplyDeployment(*deployment);
  sim_->AdvanceTo(ready + options_.settle_s);
  const sim::Measurement measurement =
      sim_->Measure(options_.measure_window_s);

  EvalOutcome outcome;
  outcome.metrics = MetricsOf(measurement);
  outcome.sla_ok = measurement.completions > 0 &&
                   measurement.p95_ms <= options_.l_tail_ms;
  outcome.cost_seconds = sim_->now() - start;
  return outcome;
}

CachingEvaluator::CachingEvaluator(Evaluator* inner) : inner_(inner) {
  CLOVER_CHECK(inner_ != nullptr);
}

EvalOutcome CachingEvaluator::Evaluate(const graph::ConfigGraph& graph) {
  const std::uint64_t key = graph.Key();
  auto it = cache_.find(key);
  if (it != cache_.end() && it->second.graph == graph) {
    ++hits_;
    EvalOutcome cached = it->second.outcome;
    cached.from_cache = true;
    cached.cost_seconds = 0.0;
    return cached;
  }
  ++misses_;
  EvalOutcome outcome = inner_->Evaluate(graph);
  cache_.insert_or_assign(key, Entry{graph, outcome});
  return outcome;
}

ReplayEvaluator::ReplayEvaluator(const models::ModelZoo* zoo,
                                 const carbon::CarbonTrace* trace,
                                 int num_gpus, const Options& options)
    : zoo_(zoo), trace_(trace), mapper_(zoo, num_gpus), options_(options) {
  CLOVER_CHECK(zoo_ != nullptr && trace_ != nullptr);
  CLOVER_CHECK(options_.arrival_rate_qps > 0.0);
  CLOVER_CHECK(options_.settle_s >= 0.0 && options_.measure_window_s > 0.0);
  CLOVER_CHECK(options_.l_tail_ms > 0.0);
}

EvalOutcome ReplayEvaluator::Evaluate(const graph::ConfigGraph& graph) {
  const auto deployment = mapper_.ToDeployment(graph);
  CLOVER_CHECK_MSG(deployment.has_value(),
                   "replaying an infeasible configuration graph");
  const sim::Measurement measurement = sim::ProbeDeployment(
      *deployment, *zoo_, trace_, options_.arrival_rate_qps, options_.seed,
      options_.settle_s, options_.measure_window_s);

  EvalOutcome outcome;
  outcome.metrics = MetricsOf(measurement);
  outcome.sla_ok = measurement.completions > 0 &&
                   measurement.p95_ms <= options_.l_tail_ms;
  outcome.cost_seconds = options_.settle_s + options_.measure_window_s;
  return outcome;
}

ReplayEvaluator::Options ReplayEvaluator::CalibrateAgainst(
    const models::ModelZoo* zoo, const carbon::CarbonTrace* trace,
    int num_gpus, const graph::ConfigGraph& base, Options options, double ci,
    ObjectiveParams* params) {
  CLOVER_CHECK(zoo != nullptr && trace != nullptr && params != nullptr);
  const auto deployment = graph::GraphMapper(zoo, num_gpus).ToDeployment(base);
  CLOVER_CHECK_MSG(deployment.has_value(),
                   "calibrating against an infeasible configuration graph");
  const EvalMetrics metrics = MetricsOf(sim::ProbeDeployment(
      *deployment, *zoo, trace, options.arrival_rate_qps, options.seed,
      options.settle_s, options.measure_window_s));
  options.l_tail_ms = metrics.p95_ms * 1.2;
  params->lambda = 0.5;
  params->a_base = metrics.accuracy;
  params->l_tail_ms = options.l_tail_ms;
  params->c_base_g = CarbonPerRequestG(metrics, ci, params->pue);
  return options;
}

}  // namespace clover::opt
