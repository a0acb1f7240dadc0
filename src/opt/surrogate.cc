#include "opt/surrogate.h"

#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "power/power_model.h"
#include "sim/queueing.h"

namespace clover::opt {

SurrogateEvaluator::Options SurrogateEvaluator::FromReplay(
    const ReplayEvaluator::Options& replay, sim::ServiceModel service_model,
    double service_jitter_sigma) {
  Options options;
  options.arrival_rate_qps = replay.arrival_rate_qps;
  options.l_tail_ms = replay.l_tail_ms;
  options.service_model = service_model;
  options.service_jitter_sigma = service_jitter_sigma;
  return options;
}

SurrogateEvaluator::SurrogateEvaluator(const models::ModelZoo* zoo,
                                       int num_gpus, const Options& options)
    : zoo_(zoo), num_gpus_(num_gpus), options_(options) {
  CLOVER_CHECK(zoo_ != nullptr);
  CLOVER_CHECK(num_gpus_ > 0 && options_.arrival_rate_qps > 0.0);
}

EvalOutcome SurrogateEvaluator::Evaluate(const graph::ConfigGraph& graph) {
  const double lambda = options_.arrival_rate_qps;
  // Graph weights are per-(variant, slice) instance counts: the groups the
  // fluid tier collapses a deployment into.
  std::vector<sim::InstanceGroup> groups;
  for (int v = 0; v < graph.num_variants(); ++v)
    for (mig::SliceType slice : mig::kAllSliceTypes)
      groups.push_back({v, slice, graph.Weight(v, slice)});
  const sim::ServerClasses fleet =
      sim::CollapseClasses(zoo_->ForApplication(graph.app()), groups);
  // The steady-state cascade: one second of offered load.
  std::vector<double> served(fleet.classes.size());
  const sim::LoadSplit split =
      sim::SplitLoad(fleet, lambda, 1.0, served.data());

  EvalOutcome outcome;
  if (split.unserved > 1e-9 || lambda >= fleet.capacity_qps) {
    // Overloaded: unbounded queue. The sentinel makes infeasible
    // candidates rank last in any screen.
    outcome.metrics.accuracy = 0.0;
    outcome.metrics.p95_ms = 1e6;
    outcome.metrics.energy_per_request_j = 1e9;
    outcome.sla_ok = false;
    return outcome;
  }

  double accuracy_sum = 0.0;
  double dynamic_watts = 0.0;
  for (std::size_t i = 0; i < fleet.classes.size(); ++i) {
    const sim::ServerClass& cls = fleet.classes[i];
    accuracy_sum += served[i] * cls.accuracy;
    dynamic_watts +=
        served[i] * MsToSeconds(cls.service_ms) * cls.dynamic_watts;
  }
  outcome.metrics.accuracy = accuracy_sum / lambda;
  const double total_watts =
      power::PowerModel::StaticWattsPerGpu() * num_gpus_ + dynamic_watts;
  outcome.metrics.energy_per_request_j = total_watts / lambda;

  outcome.metrics.p95_ms =
      sim::ComposeLatency(
          split, sim::AnalyzeTail(fleet.Mmc(lambda), options_.service_model),
          options_.service_model, options_.service_jitter_sigma)
          .p95_ms;
  outcome.sla_ok =
      options_.l_tail_ms <= 0.0 || outcome.metrics.p95_ms <= options_.l_tail_ms;
  return outcome;
}

}  // namespace clover::opt
