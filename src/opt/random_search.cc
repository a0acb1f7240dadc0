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
  SerialBatchEvaluator serial(evaluator_);
  BatchEvaluator* batch = batch_ != nullptr ? batch_ : &serial;
  const int batch_size = batch_ != nullptr ? options_.batch_size : 1;

  {
    const std::vector<graph::ConfigGraph> first{start};
    FoldEvaluation(start, batch->EvaluateBatch(first)[0], params, ci,
                   &result);
  }

  int consecutive_no_improve = 0;
  auto evaluated = [&] { return static_cast<int>(result.evaluations.size()); };
  auto stopped = [&] {
    return result.elapsed_seconds >= options_.time_budget_s ||
           consecutive_no_improve >= options_.no_improve_limit ||
           evaluated() >= options_.max_evaluations;
  };

  const bool screening = surrogate_ != nullptr && options_.screen_factor > 1;
  std::vector<graph::ConfigGraph> candidates;
  candidates.reserve(static_cast<std::size_t>(batch_size));
  while (!stopped()) {
    const int round =
        std::min(batch_size, options_.max_evaluations - evaluated());
    const int pool_size = screening ? round * options_.screen_factor : round;
    candidates.clear();
    for (int i = 0; i < pool_size; ++i)
      candidates.push_back(SampleConfiguration(start.app()));
    // Screen-then-simulate: the surrogate ranks the oversampled pool; only
    // the top round-size slice is simulated.
    if (screening)
      ScreenPool(surrogate_, params, ci, static_cast<std::size_t>(round),
                 &candidates, &result.screened);
    std::vector<EvalOutcome> outcomes;
    {
      CLOVER_TRACE_SCOPE("opt.simulate_batch");
      outcomes = batch->EvaluateBatch(candidates);
    }
    CLOVER_OBS_COUNT("opt.simulated", candidates.size());
    for (int i = 0; i < round && !stopped(); ++i) {
      const bool improved =
          FoldEvaluation(candidates[static_cast<std::size_t>(i)],
                         outcomes[static_cast<std::size_t>(i)], params, ci,
                         &result);
      consecutive_no_improve = improved ? 0 : consecutive_no_improve + 1;
    }
  }
  CLOVER_OBS_COUNT("opt.evaluated", result.evaluations.size());
  return result;
}

}  // namespace clover::opt
