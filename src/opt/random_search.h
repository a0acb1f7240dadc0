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
// Execution model. One candidate per round: sample it (with screening,
// sample screen_factor candidates and keep the surrogate's favourite),
// evaluate it, then fold the outcome through the annealer's fold
// (FoldEvaluation, annealing.h: record, budget accounting, SLA-first
// best-tracking), with the no-improve/termination checks between rounds.
//
// Thread-safety: a RandomSearch instance is a single-threaded driver. Run
// must not be called concurrently on one instance.
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
    // Screen-then-simulate: with a surrogate installed (SetSurrogate) and
    // screen_factor = K > 1, each round samples K candidates, ranks them
    // with the surrogate, and simulates only the top one. 1 disables
    // screening. The start configuration is never screened. See
    // annealing.h (ScreenPool) for the contract.
    int screen_factor = 1;
  };

  RandomSearch(Evaluator* evaluator, graph::GraphMapper* mapper,
               const Options& options, std::uint64_t seed);

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
  Evaluator* surrogate_ = nullptr;  // nullptr: no screening tier
};

}  // namespace clover::opt
