// The Clover master controller (paper Fig. 5, Sec. 4.3).
//
// Runs the control loop against a live cluster: monitor the carbon
// intensity every control interval; when it moved more than the trigger
// threshold since the last optimization, run one optimization invocation
// (graph-space simulated annealing for CLOVER, raw-space random search for
// BLOVER) whose candidate evaluations deploy-and-measure on the production
// cluster; then switch to the best configuration found. All optimization
// overhead happens in simulated time and is therefore part of every
// reported metric.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "carbon/monitor.h"
#include "core/schemes.h"
#include "graph/neighbors.h"
#include "opt/annealing.h"
#include "opt/evaluator.h"
#include "opt/random_search.h"
#include "opt/surrogate.h"
#include "sim/cluster_sim.h"

namespace clover::core {

// Lightweight operator-facing view of a controller's state, for fleet and
// CLI reporting without friend access (and without copying the history).
struct ControllerSnapshot {
  int invocations = 0;
  double last_invocation_end_s = 0.0;  // 0 before any invocation
  double last_ci = 0.0;                // CI the last invocation reacted to
  double last_best_f = 0.0;            // objective of the last winner
  std::size_t cache_size = 0;          // distinct configurations evaluated
  std::uint64_t cache_hits = 0;
  double total_optimization_seconds = 0.0;
  // The last committed SLA-compliant, capacity-safe configuration (the
  // fallback anchor); nullopt is never produced — the field is optional
  // only because ConfigGraph has no default constructor.
  std::optional<graph::ConfigGraph> last_committed;
};

// One optimization invocation (for Figs. 12-13).
struct OptimizationRun {
  int invocation = 0;
  double start_s = 0.0;
  double end_s = 0.0;  // includes deploying the winner
  double ci = 0.0;
  opt::SearchResult search;

  double DurationSeconds() const { return end_s - start_s; }
};

class Controller {
 public:
  struct Options {
    Scheme scheme = Scheme::kClover;
    double measure_window_s = 12.0;     // per-candidate measurement
    // Screen-then-simulate factor for the search (1 = off). When > 1, the
    // controller builds an analytic surrogate (opt/surrogate.h) matched to
    // the production workload and installs it on the search: each proposal
    // round oversamples by this factor and only the surrogate's top-ranked
    // candidate pays for a deploy-and-measure evaluation. Every other
    // search option keeps its default.
    int screen_factor = 1;
    std::uint64_t seed = 1;
  };

  // `sim` is the production cluster; `params` the objective context. The
  // controller keeps its evaluation cache across invocations (this is what
  // makes Clover "more intelligent over time", Sec. 5.2.2).
  Controller(sim::ClusterSim* sim, const models::ModelZoo* zoo,
             const carbon::CarbonTrace* trace,
             const opt::ObjectiveParams& params, const Options& options);

  // Called once per control interval; runs an invocation when triggered.
  // Returns the invocation record if one ran.
  std::optional<OptimizationRun> Step();

  const std::vector<OptimizationRun>& history() const { return history_; }
  double total_optimization_seconds() const { return total_opt_seconds_; }
  std::uint64_t cache_hits() const { return cache_->hits(); }

  // Current state summary (cheap; safe to call at any control boundary).
  ControllerSnapshot Snapshot() const;

 private:
  sim::ClusterSim* sim_;
  const models::ModelZoo* zoo_;
  opt::ObjectiveParams params_;
  Options options_;

  carbon::CarbonMonitor monitor_;
  graph::GraphMapper mapper_;
  graph::NeighborSampler sampler_;
  RngStream probe_rng_;
  std::unique_ptr<opt::SimEvaluator> sim_evaluator_;
  std::unique_ptr<opt::CachingEvaluator> cache_;
  std::unique_ptr<opt::SurrogateEvaluator> surrogate_;  // screening tier
  std::unique_ptr<opt::SimulatedAnnealing> annealer_;
  std::unique_ptr<opt::RandomSearch> random_search_;

  std::vector<OptimizationRun> history_;
  double total_opt_seconds_ = 0.0;
  // The most recent configuration known to be SLA-compliant and capacity-
  // safe; the fallback when an invocation fails to find one.
  graph::ConfigGraph last_compliant_;
};

}  // namespace clover::core
