#include "opt/random_search.h"

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
  CLOVER_CHECK(options_.screen_factor >= 1);
}

void RandomSearch::SetSurrogate(Evaluator* surrogate) {
  CLOVER_CHECK(surrogate != nullptr);
  surrogate_ = surrogate;
}

graph::ConfigGraph RandomSearch::SampleConfiguration(models::Application app) {
  return graph::SampleRandomConfiguration(*mapper_, rng_, app);
}

SearchResult RandomSearch::Run(const graph::ConfigGraph& start,
                               const ObjectiveParams& params, double ci) {
  SearchResult result;
  FoldEvaluation(start, evaluator_->Evaluate(start), params, ci, &result);

  int consecutive_no_improve = 0;
  auto stopped = [&] {
    return result.elapsed_seconds >= options_.time_budget_s ||
           consecutive_no_improve >= options_.no_improve_limit ||
           static_cast<int>(result.evaluations.size()) >=
               options_.max_evaluations;
  };

  const bool screening = surrogate_ != nullptr && options_.screen_factor > 1;
  std::vector<graph::ConfigGraph> candidates;
  while (!stopped()) {
    candidates.clear();
    for (int i = 0; i < (screening ? options_.screen_factor : 1); ++i)
      candidates.push_back(SampleConfiguration(start.app()));
    // Screen-then-simulate: the surrogate ranks the oversampled pool; only
    // its favourite is simulated.
    if (screening)
      ScreenPool(surrogate_, params, ci, 1, &candidates, &result.screened);
    EvalOutcome outcome;
    {
      CLOVER_TRACE_SCOPE("opt.simulate_batch");
      outcome = evaluator_->Evaluate(candidates.front());
    }
    CLOVER_OBS_COUNT("opt.simulated", 1);
    const bool improved =
        FoldEvaluation(candidates.front(), outcome, params, ci, &result);
    consecutive_no_improve = improved ? 0 : consecutive_no_improve + 1;
  }
  CLOVER_OBS_COUNT("opt.evaluated", result.evaluations.size());
  return result;
}

}  // namespace clover::opt
