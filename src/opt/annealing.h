// Simulated annealing in the graph-represented search space (paper
// Sec. 4.2).
//
// Schedule: T starts at 1.0, cools linearly by 0.05 per iteration down to
// 0.1. A proposal within the GED-4 neighborhood of the current center is
// measured (through the caching evaluator, so revisited graphs are free);
// it is accepted when h(x') <= h(x) and otherwise with probability
// exp(-(h(x') - h(x)) / T). The run terminates at a wall-time budget
// (5 simulated minutes) or after 5 consecutive evaluations without finding
// a new best.
//
// "Best" respects the SLA constraint: among SLA-compliant evaluations the
// highest f wins; if nothing compliant has been seen yet, the least
// violating configuration is tracked as a fallback (the paper's invocation
// I "settles with the only SLA-compliant configuration it has found" —
// compliance is required before anything else).
//
// Execution model (batch-synchronous speculative annealing). With a
// BatchEvaluator installed and Options::batch_size = B, each round draws B
// proposals sequentially from the round's starting center, evaluates the
// whole batch (possibly in parallel), then folds outcomes IN PROPOSAL
// ORDER: record, best-tracking, the acceptance test against the *evolving*
// center energy, and the per-evaluation cooling step all happen in the
// fold. Proposals later in a round are therefore speculative — they were
// drawn from the round's starting center even if an earlier proposal was
// accepted mid-fold — which is the standard speculative trade: batch_size
// widens the proposal front in exchange for parallel evaluation. The
// documented serial semantics:
//   * batch_size == 1 reproduces the legacy one-at-a-time annealer
//     bit-for-bit (sampling, acceptance RNG draws, cooling — everything);
//   * for fixed (options, seed), results are bit-identical across thread
//     counts of a pure parallel evaluator (sampling, acceptance draws and
//     folding are all serial; see evaluator.h);
//   * outcomes past a mid-fold termination are discarded, never accounted.
//
// Thread-safety: a SimulatedAnnealing instance is a single-threaded
// driver; all concurrency lives behind the BatchEvaluator. Run must not be
// called concurrently on one instance.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/neighbors.h"
#include "opt/evaluator.h"
#include "opt/objective.h"

namespace clover::opt {

// One evaluated configuration, for Figs. 12-13 style introspection.
struct EvalRecord {
  graph::ConfigGraph graph;
  EvalMetrics metrics;
  double f = 0.0;
  double delta_carbon_pct = 0.0;
  double delta_accuracy_pct = 0.0;
  bool sla_ok = false;
  bool from_cache = false;
  int order = 0;  // evaluation sequence within the run

  EvalRecord() : graph(models::Application::kClassification, 1) {}
};

struct SearchResult {
  graph::ConfigGraph best;
  EvalMetrics best_metrics;
  double best_f = 0.0;
  bool best_sla_ok = false;
  std::vector<EvalRecord> evaluations;
  double elapsed_seconds = 0.0;  // total (simulated) time spent evaluating
  int cache_hits = 0;
  // Candidates the surrogate screen discarded before simulation (0 without
  // screening). Screened candidates never appear in `evaluations` and never
  // touch best-tracking — the surrogate only chooses who gets simulated.
  int screened = 0;

  SearchResult() : best(models::Application::kClassification, 1) {}
};

// True iff two results agree bit-for-bit in every reported field (best,
// every evaluation record, accounting counters). This is the single
// definition of the parallel-execution determinism contract — the unit
// tests (tests/opt_parallel_test.cc) and the CI gate (bench/bench_runner)
// both check against it, so they cannot drift apart.
bool SearchResultsBitIdentical(const SearchResult& a, const SearchResult& b);

// Screen-then-simulate support shared by the searches: evaluates every
// graph in `pool` with the (cheap, pure) surrogate, ranks them SLA-first
// (compliant candidates by descending objective f, violating ones by
// ascending violation; ties broken by sampling index), and returns the
// indices of the `keep` most promising candidates IN SAMPLING ORDER — the
// fold then processes survivors exactly as if they had been sampled
// directly. Serial and deterministic for any thread count. Surrogate
// outcomes are used only for this ranking; they are never recorded.
std::vector<std::size_t> ScreenCandidates(
    Evaluator* surrogate, const std::vector<graph::ConfigGraph>& pool,
    const ObjectiveParams& params, double ci, std::size_t keep);

// The screen step of both searches: when `pool` holds more than `keep`
// candidates, filters it in place to ScreenCandidates' survivors (sampling
// order kept) and adds the number dropped to `*screened`.
void ScreenPool(Evaluator* surrogate, const ObjectiveParams& params,
                double ci, std::size_t keep,
                std::vector<graph::ConfigGraph>* pool, int* screened);

// The fold of both searches, applied once per evaluated candidate in
// evaluation order: appends the candidate's record (its order is its
// position in `evaluations`), adds its cost and cache hit, and applies the
// SLA-first best rule — the first candidate is the best; a compliant
// candidate beats a violating incumbent; compliant candidates compete on
// higher f, violating ones on smaller p95 excess over the SLA; a tie keeps
// the incumbent. Returns true when the candidate became the new best.
bool FoldEvaluation(const graph::ConfigGraph& graph,
                    const EvalOutcome& outcome, const ObjectiveParams& params,
                    double ci, SearchResult* result);

class SimulatedAnnealing {
 public:
  struct Options {
    double t0 = 1.0;
    double cooling_step = 0.05;
    double t_min = 0.1;
    int no_improve_limit = 5;
    double time_budget_s = 300.0;  // the paper's 5-minute cap
    int max_evaluations = 1000;    // hard safety stop
    // Proposals per speculative round (file comment). 1 = legacy serial
    // schedule; only takes effect once SetBatchEvaluator installed a batch
    // executor. Keep modest (~2x the evaluator's thread count): every
    // accepted proposal invalidates the rest of its round's centering.
    int batch_size = 1;
    // Screen-then-simulate: with a surrogate installed (SetSurrogate) and
    // screen_factor = K > 1, each round draws K times as many proposals,
    // ranks them with the surrogate, and simulates only the top round-size
    // slice. 1 disables screening. Changing K changes which proposals are
    // drawn (more sampler draws per round), so results are comparable only
    // at a fixed (options, seed, K) — determinism across thread counts is
    // unaffected (the screen is serial and the surrogate pure).
    int screen_factor = 1;
  };

  SimulatedAnnealing(Evaluator* evaluator, graph::NeighborSampler* sampler,
                     const Options& options, std::uint64_t seed);

  // Routes proposal batches through `batch` (borrowed; must outlive the
  // annealer). Determinism contract: see the file comment.
  void SetBatchEvaluator(BatchEvaluator* batch);

  // Installs the fast-fidelity ranking tier (borrowed; must outlive the
  // annealer). Takes effect when Options::screen_factor > 1; seed
  // evaluations are never screened (the incumbent must be measured).
  void SetSurrogate(Evaluator* surrogate);

  // Runs one optimization invocation from `start` at carbon intensity `ci`.
  SearchResult Run(const graph::ConfigGraph& start,
                   const ObjectiveParams& params, double ci);

  // Multi-seed variant: evaluates every seed (the blind probes of a cold
  // start plus the incumbent), then anneals from the lowest-energy one.
  SearchResult Run(const std::vector<graph::ConfigGraph>& seeds,
                   const ObjectiveParams& params, double ci);

 private:
  Evaluator* evaluator_;
  graph::NeighborSampler* sampler_;
  Options options_;
  RngStream accept_rng_;
  BatchEvaluator* batch_ = nullptr;     // nullptr: serial via evaluator_
  Evaluator* surrogate_ = nullptr;      // nullptr: no screening tier
};

}  // namespace clover::opt
