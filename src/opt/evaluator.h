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
//   ReplayEvaluator   probes the candidate on a private, freshly built
//                     cluster (sim::ProbeDeployment, the same probe ORACLE
//                     profiles with) — side-effect-free, so an offline
//                     search never touches the production cluster
//
// The closed-form steady-state estimate lives in opt/surrogate.h.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "carbon/trace.h"
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

// The (A, E, L) triple read off one measured window.
EvalMetrics MetricsOf(const sim::Measurement& measurement);

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

// Offline evaluator that probes each candidate on a private, freshly
// constructed cluster: deploy, warm up for `settle_s`, then measure for
// `measure_window_s` (sim::ProbeDeployment). Because every call builds its
// own simulator from the same (trace, seed) options, Evaluate is a pure
// function of the graph — two calls with the same graph return
// bit-identical outcomes. The online control loop keeps using SimEvaluator,
// whose evaluation cost is paid on the production cluster by design.
class ReplayEvaluator : public Evaluator {
 public:
  struct Options {
    double arrival_rate_qps = 100.0;
    double settle_s = 4.0;           // warm-up before the measurement
    double measure_window_s = 12.0;  // measured probe
    double l_tail_ms = 0.0;          // SLA for the sla_ok verdict
    std::uint64_t seed = 1;          // probe arrival/jitter streams
  };

  // `trace` must outlive the evaluator (read-only).
  ReplayEvaluator(const models::ModelZoo* zoo,
                  const carbon::CarbonTrace* trace, int num_gpus,
                  const Options& options);

  EvalOutcome Evaluate(const graph::ConfigGraph& graph) override;

  // Calibrates a replay-based search against `base` (normally the BASE
  // deployment's graph) measured by the same probe candidates will get:
  // returns `options` with l_tail_ms = 1.2 * p95(base), and fills `params`
  // with the paper-default objective anchored to the measured baseline
  // (a_base, c_base_g at intensity `ci`, lambda 0.5). One recipe shared by
  // every replay consumer (bench_runner's opt_screened row, the search
  // tests) so the contract they check cannot drift.
  static Options CalibrateAgainst(const models::ModelZoo* zoo,
                                  const carbon::CarbonTrace* trace,
                                  int num_gpus,
                                  const graph::ConfigGraph& base,
                                  Options options, double ci,
                                  ObjectiveParams* params);

 private:
  const models::ModelZoo* zoo_;
  const carbon::CarbonTrace* trace_;
  graph::GraphMapper mapper_;  // owned: the solver memoizes
  Options options_;
};

}  // namespace clover::opt
