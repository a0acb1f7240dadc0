#include "opt/evaluator.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace clover::opt {

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
  outcome.metrics.accuracy = measurement.weighted_accuracy;
  outcome.metrics.energy_per_request_j = measurement.energy_per_request_j;
  outcome.metrics.p95_ms = measurement.p95_ms;
  outcome.sla_ok = measurement.completions > 0 &&
                   measurement.p95_ms <= options_.l_tail_ms;
  outcome.cost_seconds = sim_->now() - start;
  return outcome;
}

const EvalCacheStore::Entry* EvalCacheStore::Lookup(
    std::uint64_t key, const graph::ConfigGraph& graph) {
  auto it = cache_.find(key);
  if (it != cache_.end() && it->second.graph == graph) {
    ++hits_;
    return &it->second;
  }
  ++misses_;
  return nullptr;
}

void EvalCacheStore::Insert(std::uint64_t key,
                            const graph::ConfigGraph& graph,
                            const EvalOutcome& outcome) {
  cache_.insert_or_assign(key, Entry{graph, outcome});
}

CachingEvaluator::CachingEvaluator(Evaluator* inner,
                                   std::shared_ptr<EvalCacheStore> store)
    : inner_(inner), store_(std::move(store)) {
  CLOVER_CHECK(inner_ != nullptr);
  if (store_ == nullptr) store_ = std::make_shared<EvalCacheStore>();
}

EvalOutcome CachingEvaluator::Evaluate(const graph::ConfigGraph& graph) {
  const std::uint64_t key = graph.Key();
  if (const EvalCacheStore::Entry* entry = store_->Lookup(key, graph)) {
    EvalOutcome cached = entry->outcome;
    cached.from_cache = true;
    cached.cost_seconds = 0.0;
    return cached;
  }
  EvalOutcome outcome = inner_->Evaluate(graph);
  store_->Insert(key, graph, outcome);
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

  sim::SimOptions sim_options;
  sim_options.arrival_rate_qps = options_.arrival_rate_qps;
  sim_options.seed = options_.seed;
  // One window spanning the whole replay: no mid-probe window closure.
  sim_options.window_seconds =
      options_.settle_s + options_.measure_window_s + 1.0;
  sim::ClusterSim replica(*deployment, *zoo_, trace_, sim_options);
  if (options_.settle_s > 0.0) replica.AdvanceTo(options_.settle_s);
  const sim::Measurement measurement =
      replica.Measure(options_.measure_window_s);

  EvalOutcome outcome;
  outcome.metrics.accuracy = measurement.weighted_accuracy;
  outcome.metrics.energy_per_request_j = measurement.energy_per_request_j;
  outcome.metrics.p95_ms = measurement.p95_ms;
  outcome.sla_ok = measurement.completions > 0 &&
                   measurement.p95_ms <= options_.l_tail_ms;
  outcome.cost_seconds = options_.settle_s + options_.measure_window_s;
  return outcome;
}

ReplayEvaluator::Options ReplayEvaluator::CalibrateAgainst(
    const models::ModelZoo* zoo, const carbon::CarbonTrace* trace,
    int num_gpus, const graph::ConfigGraph& base, Options options, double ci,
    ObjectiveParams* params) {
  CLOVER_CHECK(params != nullptr);
  options.l_tail_ms = 1.0;  // placeholder so the probe constructor passes
  ReplayEvaluator probe(zoo, trace, num_gpus, options);
  const EvalOutcome outcome = probe.Evaluate(base);
  options.l_tail_ms = outcome.metrics.p95_ms * 1.2;
  params->lambda = 0.5;
  params->a_base = outcome.metrics.accuracy;
  params->l_tail_ms = options.l_tail_ms;
  params->c_base_g = CarbonPerRequestG(outcome.metrics, ci, params->pue);
  return options;
}

SerialBatchEvaluator::SerialBatchEvaluator(Evaluator* inner) : inner_(inner) {
  CLOVER_CHECK(inner_ != nullptr);
}

std::vector<EvalOutcome> SerialBatchEvaluator::EvaluateBatch(
    const std::vector<graph::ConfigGraph>& graphs) {
  std::vector<EvalOutcome> outcomes;
  outcomes.reserve(graphs.size());
  for (const graph::ConfigGraph& graph : graphs)
    outcomes.push_back(inner_->Evaluate(graph));
  return outcomes;
}

ParallelBatchEvaluator::ParallelBatchEvaluator(
    ThreadPool* pool, std::vector<std::unique_ptr<Evaluator>> replicas)
    : pool_(pool), replicas_(std::move(replicas)) {
  CLOVER_CHECK(pool_ != nullptr);
  CLOVER_CHECK_MSG(!replicas_.empty(),
                   "ParallelBatchEvaluator needs at least one replica");
  for (const auto& replica : replicas_) CLOVER_CHECK(replica != nullptr);
}

std::vector<EvalOutcome> ParallelBatchEvaluator::EvaluateBatch(
    const std::vector<graph::ConfigGraph>& graphs) {
  std::vector<EvalOutcome> outcomes(graphs.size());
  if (graphs.empty()) return outcomes;
  // Enough replicas for every slot ParallelFor may open; purity of the
  // replicas makes the (slot -> candidate) assignment irrelevant to the
  // result, so dynamic scheduling stays deterministic.
  const std::size_t slots = std::min<std::size_t>(
      static_cast<std::size_t>(pool_->num_threads()), graphs.size());
  CLOVER_CHECK_MSG(replicas_.size() >= slots,
                   "fewer evaluator replicas ("
                       << replicas_.size() << ") than pool slots (" << slots
                       << ")");
  pool_->ParallelFor(graphs.size(), [&](int slot, std::size_t index) {
    outcomes[index] =
        replicas_[static_cast<std::size_t>(slot)]->Evaluate(graphs[index]);
  });
  return outcomes;
}

}  // namespace clover::opt
