// Configuration evaluators.
//
// Clover is an *online* system: a candidate configuration is evaluated by
// deploying it on the production cluster and measuring accuracy, energy and
// tail latency for a short window (the cost of which — repartitioning,
// model reloads, and any SLA damage a bad candidate causes — is part of the
// run, paper Sec. 4.3/5.2.2).
//
//   SimEvaluator      deploy + measure on the live ClusterSim
//   CachingEvaluator  wraps another evaluator with a graph-keyed cache —
//                     revisited graphs are "saved" evaluations (Fig. 12b)
//   ReplayEvaluator   deploys the candidate on a private warm cluster
//                     replica — side-effect-free, so batches of candidates
//                     can be evaluated concurrently
//
// The closed-form steady-state estimate lives in opt/surrogate.h.
//
// Batch evaluation: the searches (random_search.h, annealing.h) consume
// candidates through the BatchEvaluator interface. SerialBatchEvaluator
// adapts any Evaluator; ParallelBatchEvaluator fans a batch out over a
// thread pool with one evaluator replica per pool slot. Parallel batches
// require *pure* replicas — Evaluate must be a function of the graph alone
// (ReplayEvaluator and SurrogateEvaluator qualify; SimEvaluator does NOT:
// it mutates the shared production simulator, which is exactly why the
// online control loop stays serial). Under that contract results are
// bit-identical for every thread count (see docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "carbon/trace.h"
#include "common/thread_pool.h"
#include "graph/config_graph.h"
#include "graph/mapping.h"
#include "opt/objective.h"
#include "sim/cluster_sim.h"

namespace clover::opt {

struct EvalOutcome {
  EvalMetrics metrics;
  bool sla_ok = false;
  bool from_cache = false;
  double cost_seconds = 0.0;  // wall (simulated) time the evaluation took
};

class Evaluator {
 public:
  virtual ~Evaluator() = default;
  virtual EvalOutcome Evaluate(const graph::ConfigGraph& graph) = 0;
};

// Deploys each candidate on the live cluster simulator and measures it.
class SimEvaluator : public Evaluator {
 public:
  struct Options {
    // Queue-settle period between the reconfiguration completing and the
    // measurement starting: the backlog accumulated while GPUs were offline
    // drains, so the measurement reflects the candidate's steady state, not
    // the reconfiguration transient. Both phases are paid in simulated time.
    double settle_s = 8.0;
    double measure_window_s = 12.0;
    double l_tail_ms = 0.0;  // SLA for the sla_ok verdict
  };

  SimEvaluator(sim::ClusterSim* sim, graph::GraphMapper* mapper,
               const Options& options);

  EvalOutcome Evaluate(const graph::ConfigGraph& graph) override;

 private:
  sim::ClusterSim* sim_;
  graph::GraphMapper* mapper_;
  Options options_;
};

// Graph-keyed memoization. Cached entries return instantly (cost 0) — the
// "Saved" share of Fig. 12(b). Note the cache stores (A, E, L); the
// CI-dependent objective is recomputed by the caller, so entries stay valid
// across carbon-intensity changes.
class CachingEvaluator : public Evaluator {
 public:
  explicit CachingEvaluator(Evaluator* inner);

  EvalOutcome Evaluate(const graph::ConfigGraph& graph) override;

  std::size_t size() const { return cache_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    graph::ConfigGraph graph;  // collision guard
    EvalOutcome outcome;
  };

  Evaluator* inner_;
  std::unordered_map<std::uint64_t, Entry> cache_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

// Offline evaluator that replays each candidate on a private, freshly
// constructed cluster replica: deploy, let the queue warm up for
// `settle_s`, then measure for `measure_window_s`. Because every call
// builds its own simulator from the same (trace, seed) options, Evaluate
// is a pure function of the graph — two calls with the same graph return
// bit-identical outcomes, on any thread. This is the evaluator behind
// parallel candidate batches (planning / what-if / bench runs); the online
// control loop keeps using SimEvaluator, whose evaluation cost is paid on
// the production cluster by design.
class ReplayEvaluator : public Evaluator {
 public:
  struct Options {
    double arrival_rate_qps = 100.0;
    double settle_s = 4.0;           // warm-up before the measurement
    double measure_window_s = 12.0;  // measured probe
    double l_tail_ms = 0.0;          // SLA for the sla_ok verdict
    std::uint64_t seed = 1;          // replica arrival/jitter streams
  };

  // `trace` must outlive the evaluator (read-only; shared across replicas).
  ReplayEvaluator(const models::ModelZoo* zoo,
                  const carbon::CarbonTrace* trace, int num_gpus,
                  const Options& options);

  EvalOutcome Evaluate(const graph::ConfigGraph& graph) override;

  // Calibrates a replay-based search against `base` (normally the BASE
  // deployment's graph) measured by the same replay mechanism candidates
  // will use: returns `options` with l_tail_ms = 1.2 * p95(base), and
  // fills `params` with the paper-default objective anchored to the
  // measured baseline (a_base, c_base_g at intensity `ci`, lambda 0.5).
  // One recipe shared by every replay consumer (bench_runner, the
  // determinism tests) so the contract they check cannot drift.
  static Options CalibrateAgainst(const models::ModelZoo* zoo,
                                  const carbon::CarbonTrace* trace,
                                  int num_gpus,
                                  const graph::ConfigGraph& base,
                                  Options options, double ci,
                                  ObjectiveParams* params);

 private:
  const models::ModelZoo* zoo_;
  const carbon::CarbonTrace* trace_;
  graph::GraphMapper mapper_;  // owned per replica: the solver memoizes
  Options options_;
};

// Evaluates whole candidate batches; how (serially, in parallel, remotely)
// is the implementation's business. Searches interact only with this
// interface, so the execution strategy is swappable without touching the
// search logic. outcomes[i] always corresponds to graphs[i].
class BatchEvaluator {
 public:
  virtual ~BatchEvaluator() = default;
  virtual std::vector<EvalOutcome> EvaluateBatch(
      const std::vector<graph::ConfigGraph>& graphs) = 0;
};

// Loops over the batch on the calling thread. Wrapping the searches'
// single-candidate evaluator in this adapter reproduces the legacy serial
// behaviour exactly (same call order, same shared-state effects).
class SerialBatchEvaluator : public BatchEvaluator {
 public:
  explicit SerialBatchEvaluator(Evaluator* inner);

  std::vector<EvalOutcome> EvaluateBatch(
      const std::vector<graph::ConfigGraph>& graphs) override;

 private:
  Evaluator* inner_;
};

// Fans a batch out over `pool`, assigning work dynamically but binding one
// evaluator replica to each pool slot (two tasks on the same slot never run
// concurrently, so replicas need no locking). Requires pure replicas — each
// Evaluate must depend only on its graph argument — which makes the batch
// result bit-identical for every pool size. `replicas` must hold at least
// min(pool->num_threads(), batch size) entries; extra replicas are unused.
//
// Thread-safety: one EvaluateBatch call at a time per instance (the
// searches, the only callers, are single-threaded drivers).
class ParallelBatchEvaluator : public BatchEvaluator {
 public:
  ParallelBatchEvaluator(ThreadPool* pool,
                         std::vector<std::unique_ptr<Evaluator>> replicas);

  std::vector<EvalOutcome> EvaluateBatch(
      const std::vector<graph::ConfigGraph>& graphs) override;

 private:
  ThreadPool* pool_;
  std::vector<std::unique_ptr<Evaluator>> replicas_;
};

}  // namespace clover::opt
