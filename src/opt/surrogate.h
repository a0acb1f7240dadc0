// Analytic surrogate evaluator: the fast-fidelity tier of the optimizer.
//
// A ReplayEvaluator call replays settle + measure seconds of simulated time
// per candidate — milliseconds of wall time. This surrogate answers the
// same question ("what would this configuration's (A, E, L) be?") in
// microseconds from closed-form queueing math, which is what makes
// screen-then-simulate search (random_search.h / annealing.h) possible:
// the surrogate ranks a screen_factor-times larger candidate pool, and only
// the top slice pays for a simulation.
//
// Accuracy and energy come from a saturation cascade (accuracy-greedy
// dispatch: high-accuracy instances saturate first, the remainder spills to
// lower-accuracy ones; energy is static power plus busy-time dynamic
// power). The latency tail comes from the M/M/c oracles of sim/analytic.h:
//
//   * The fleet is collapsed to an equivalent M/M/c: c = instance count,
//     mu_eff = total service rate / c. For a uniform fleet under
//     ServiceModel::kExponential this IS the simulated system, and the p95
//     is the exact M/M/c sojourn-time quantile (the ccdf of Wq + S solved
//     by bisection). tests/surrogate_test.cc holds the surrogate to the
//     simulator over the differential (c, rho) grid on this basis.
//   * Under ServiceModel::kJittered (near-deterministic service), p95 is
//     the load-weighted service p95 with jitter headroom plus the M/M/c
//     waiting-time quantile scaled by the M/G/c two-moment correction
//     (1 + cv^2) / 2 with cv = jitter sigma. This slightly overestimates
//     the tail of low-variance systems — conservative in the right
//     direction for an SLA screen.
//
// Heterogeneous fleets make the collapse an approximation; the surrogate is
// a *ranking* tier, and misranked borderline candidates merely cost one
// extra simulation. Overload (offered rate above total capacity) returns
// a sentinel outcome (zero accuracy, 1e6 ms p95) so screened-out candidates
// sort last. Evaluate is pure (a function of the graph alone), so the
// surrogate composes with every batch strategy and never perturbs
// determinism contracts.
#pragma once

#include "graph/config_graph.h"
#include "models/zoo.h"
#include "opt/evaluator.h"
#include "perf/calibration.h"
#include "sim/analytic.h"
#include "sim/cluster_sim.h"

namespace clover::opt {

class SurrogateEvaluator : public Evaluator {
 public:
  struct Options {
    double arrival_rate_qps = 100.0;
    double l_tail_ms = 0.0;  // SLA for the sla_ok verdict
    // Which service-time model the screened simulation tier runs; decides
    // the tail recipe (exact M/M/c sojourn vs two-moment approximation).
    sim::ServiceModel service_model = sim::ServiceModel::kJittered;
    double service_jitter_sigma = perf::kServiceJitterSigma;
  };

  SurrogateEvaluator(const models::ModelZoo* zoo, int num_gpus,
                     const Options& options);

  EvalOutcome Evaluate(const graph::ConfigGraph& graph) override;

  // Matches the surrogate to the replay tier it screens for, so the two
  // fidelity tiers agree on workload, SLA and service model.
  static Options FromReplay(const ReplayEvaluator::Options& replay,
                            sim::ServiceModel service_model,
                            double service_jitter_sigma);

 private:
  const models::ModelZoo* zoo_;
  int num_gpus_;
  Options options_;
};

}  // namespace clover::opt
