#include "opt/random_search.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "graph/neighbors.h"
#include "perf/perf_model.h"

namespace clover::opt {

RandomSearch::RandomSearch(Evaluator* evaluator, graph::GraphMapper* mapper,
                           const Options& options, std::uint64_t seed)
    : evaluator_(evaluator),
      mapper_(mapper),
      options_(options),
      rng_(seed, "blover-random-search") {
  CLOVER_CHECK(evaluator_ != nullptr && mapper_ != nullptr);
  CLOVER_CHECK(options_.batch_size >= 1);
  CLOVER_CHECK(options_.screen_factor >= 1);
}

void RandomSearch::SetBatchEvaluator(BatchEvaluator* batch) {
  CLOVER_CHECK(batch != nullptr);
  batch_ = batch;
}

void RandomSearch::SetSurrogate(Evaluator* surrogate) {
  CLOVER_CHECK(surrogate != nullptr);
  surrogate_ = surrogate;
}

graph::ConfigGraph RandomSearch::SampleConfiguration(models::Application app) {
  return graph::SampleRandomConfiguration(*mapper_, rng_, app,
                                          options_.empty_slice_probability);
}

SearchResult RandomSearch::Run(const graph::ConfigGraph& start,
                               const ObjectiveParams& params, double ci) {
  SearchResult result;

  // Local SLA-first best tracking (mirrors the annealer's rule).
  bool best_sla_ok = false;
  double best_f = 0.0;
  double best_violation = 0.0;
  bool has_best = false;

  auto consider = [&](const graph::ConfigGraph& graph,
                      const EvalOutcome& outcome, const EvalRecord& record) {
    const double violation =
        std::max(0.0, outcome.metrics.p95_ms - params.l_tail_ms);
    bool better = false;
    if (!has_best) {
      better = true;
    } else if (outcome.sla_ok && !best_sla_ok) {
      better = true;
    } else if (outcome.sla_ok == best_sla_ok) {
      better = outcome.sla_ok ? (record.f > best_f)
                              : (violation < best_violation);
    }
    if (better) {
      has_best = true;
      best_sla_ok = outcome.sla_ok;
      best_f = record.f;
      best_violation = violation;
      result.best = graph;
      result.best_metrics = outcome.metrics;
      result.best_f = record.f;
      result.best_sla_ok = outcome.sla_ok;
    }
    return better;
  };

  // Serial fold of one evaluated candidate: records it, accounts its cost,
  // and updates the incumbent. All termination state advances here, never
  // inside the (possibly parallel) batch evaluation.
  auto fold = [&](const graph::ConfigGraph& graph, const EvalOutcome& outcome,
                  int order) {
    result.elapsed_seconds += outcome.cost_seconds;
    if (outcome.from_cache) ++result.cache_hits;
    EvalRecord record;
    record.graph = graph;
    record.metrics = outcome.metrics;
    record.f = ObjectiveF(outcome.metrics, params, ci);
    record.delta_carbon_pct = DeltaCarbonPct(outcome.metrics, params, ci);
    record.delta_accuracy_pct = DeltaAccuracyPct(outcome.metrics, params);
    record.sla_ok = outcome.sla_ok;
    record.from_cache = outcome.from_cache;
    record.order = order;
    result.evaluations.push_back(record);
    return consider(graph, outcome, record);
  };

  SerialBatchEvaluator serial(evaluator_);
  BatchEvaluator* batch = batch_ != nullptr ? batch_ : &serial;
  const int batch_size = batch_ != nullptr ? options_.batch_size : 1;

  int order = 0;
  {
    const std::vector<graph::ConfigGraph> first{start};
    fold(start, batch->EvaluateBatch(first)[0], order++);
  }

  int consecutive_no_improve = 0;
  auto stopped = [&] {
    return result.elapsed_seconds >= options_.time_budget_s ||
           consecutive_no_improve >= options_.no_improve_limit ||
           order >= options_.max_evaluations;
  };

  const bool screening = surrogate_ != nullptr && options_.screen_factor > 1;
  std::vector<graph::ConfigGraph> candidates;
  candidates.reserve(static_cast<std::size_t>(batch_size));
  while (!stopped()) {
    const int round =
        std::min(batch_size, options_.max_evaluations - order);
    const int pool_size = screening ? round * options_.screen_factor : round;
    candidates.clear();
    for (int i = 0; i < pool_size; ++i)
      candidates.push_back(SampleConfiguration(start.app()));
    // Screen-then-simulate: the surrogate ranks the oversampled pool; only
    // the top round-size slice is simulated. Survivors keep sampling order,
    // so the fold below is unchanged.
    if (screening && candidates.size() > static_cast<std::size_t>(round)) {
      const std::vector<std::size_t> survivors =
          ScreenCandidates(surrogate_, candidates, params, ci,
                           static_cast<std::size_t>(round));
      result.screened +=
          static_cast<int>(candidates.size() - survivors.size());
      CLOVER_OBS_COUNT("opt.screened", candidates.size() - survivors.size());
      std::vector<graph::ConfigGraph> kept;
      kept.reserve(survivors.size());
      for (std::size_t index : survivors)
        kept.push_back(std::move(candidates[index]));
      candidates = std::move(kept);
    }
    std::vector<EvalOutcome> outcomes;
    {
      CLOVER_TRACE_SCOPE("opt.simulate_batch");
      outcomes = batch->EvaluateBatch(candidates);
    }
    CLOVER_OBS_COUNT("opt.simulated", candidates.size());
    for (int i = 0; i < round && !stopped(); ++i) {
      const bool improved = fold(candidates[static_cast<std::size_t>(i)],
                                 outcomes[static_cast<std::size_t>(i)],
                                 order++);
      consecutive_no_improve = improved ? 0 : consecutive_no_improve + 1;
    }
  }
  CLOVER_OBS_COUNT("opt.evaluated", result.evaluations.size());
  return result;
}

}  // namespace clover::opt
