// Analytic surrogate evaluator: the fast-fidelity tier of the optimizer.
//
// A ReplayEvaluator call replays settle + measure seconds of simulated time
// per candidate — milliseconds of wall time. This surrogate answers the
// same question ("what would this configuration's (A, E, L) be?") in
// microseconds from closed-form queueing math, which is what makes
// screen-then-simulate search (random_search.h / annealing.h) possible:
// the surrogate ranks screen_factor candidates per search round, and only
// the top one pays for a simulation.
//
// Accuracy and energy come from the saturation cascade of sim/queueing.h
// (accuracy-greedy dispatch: high-accuracy instances saturate first, the
// remainder spills to lower-accuracy ones; energy is static power plus
// busy-time dynamic power). The latency tail comes from the same queueing
// recipe the fluid tier (sim/meanfield.h) calls: the fleet collapsed to an
// aggregate M/M/c, the exact sojourn quantile under
// ServiceModel::kExponential (for a uniform fleet this IS the simulated
// system — tests/surrogate_test.cc holds the surrogate to the simulator
// over the differential (c, rho) grid on this basis), and under
// ServiceModel::kJittered the service mix's p95 with jitter headroom plus
// the two-moment-corrected wait quantile, which slightly overestimates the
// tail — conservative in the right direction for an SLA screen.
//
// Heterogeneous fleets make the collapse an approximation; the surrogate is
// a *ranking* tier, and misranked borderline candidates merely cost one
// extra simulation. Overload (offered rate above total capacity) returns
// a sentinel outcome (zero accuracy, 1e6 ms p95) so screened-out candidates
// sort last. Evaluate is pure (a function of the graph alone), so the
// surrogate never perturbs the searches' determinism contract.
#pragma once

#include "graph/config_graph.h"
#include "models/zoo.h"
#include "opt/evaluator.h"
#include "perf/calibration.h"
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
