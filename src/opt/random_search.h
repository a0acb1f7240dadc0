// Blover's search: random sampling in the original (x_p, x_v) space
// (paper Sec. 5.1, "Competing schemes").
//
// Blover implements all of Clover's design except the graph-based
// optimization: same objective, same SLA rule, same termination condition
// (time budget or 5 consecutive evaluations without a new best), but each
// candidate is drawn uniformly at random — a random layout for every GPU
// and a random fitting variant (or empty) for every slice — and evaluated
// by deployment, with no neighborhood structure and no evaluation cache.
//
// Execution model. Candidates are consumed in rounds of
// Options::batch_size: each round samples its candidates sequentially from
// the search's own RNG stream, hands the whole batch to a BatchEvaluator,
// then folds the outcomes back IN SAMPLING ORDER through the annealer's
// fold (FoldEvaluation, annealing.h: record, budget accounting, SLA-first
// best-tracking), with the no-improve/termination checks between folds.
// That fold order is the documented serial semantics:
//   * batch_size == 1 reproduces the legacy one-at-a-time algorithm
//     bit-for-bit;
//   * for a fixed (options, seed), results are bit-identical no matter how
//     many threads the BatchEvaluator uses, because candidate sampling and
//     folding are serial and a parallel batch evaluator is required to be
//     pure per candidate (see ParallelBatchEvaluator in evaluator.h);
//   * when a termination condition fires mid-fold, the remaining outcomes
//     of that round are discarded — speculative work that costs wall time
//     but never changes the result or the reported elapsed_seconds.
//
// Thread-safety: a RandomSearch instance is a single-threaded driver; all
// concurrency lives behind the BatchEvaluator. Run must not be called
// concurrently on one instance.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "graph/mapping.h"
#include "opt/annealing.h"  // SearchResult / EvalRecord
#include "opt/evaluator.h"

namespace clover::opt {

class RandomSearch {
 public:
  struct Options {
    int no_improve_limit = 5;
    double time_budget_s = 300.0;
    int max_evaluations = 1000;
    // Probability a slice is left empty when sampling x_v.
    double empty_slice_probability = 0.1;
    // Candidates evaluated per batch round. 1 = the legacy serial
    // schedule. Larger values only take effect once SetBatchEvaluator
    // installed a batch executor; useful sizes are 2-4x the evaluator's
    // thread count so dynamic scheduling can level uneven candidate costs.
    int batch_size = 1;
    // Screen-then-simulate: with a surrogate installed (SetSurrogate) and
    // screen_factor = K > 1, each round samples K times as many candidates,
    // ranks them with the surrogate, and simulates only the top round-size
    // slice. 1 disables screening. The start configuration is never
    // screened. See annealing.h (ScreenPool) for the contract.
    int screen_factor = 1;
  };

  RandomSearch(Evaluator* evaluator, graph::GraphMapper* mapper,
               const Options& options, std::uint64_t seed);

  // Routes candidate batches through `batch` (borrowed; must outlive the
  // search) instead of the per-candidate evaluator. Determinism contract:
  // see the file comment.
  void SetBatchEvaluator(BatchEvaluator* batch);

  // Installs the fast-fidelity ranking tier (borrowed; must outlive the
  // search). Takes effect when Options::screen_factor > 1.
  void SetSurrogate(Evaluator* surrogate);

  // Runs one invocation starting from (and first measuring) `start`.
  SearchResult Run(const graph::ConfigGraph& start,
                   const ObjectiveParams& params, double ci);

  // Draws one uniformly random feasible configuration (exposed for tests).
  graph::ConfigGraph SampleConfiguration(models::Application app);

 private:
  Evaluator* evaluator_;
  graph::GraphMapper* mapper_;
  Options options_;
  RngStream rng_;
  BatchEvaluator* batch_ = nullptr;  // nullptr: serial via evaluator_
  Evaluator* surrogate_ = nullptr;   // nullptr: no screening tier
};

}  // namespace clover::opt
