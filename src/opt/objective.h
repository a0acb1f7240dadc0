// Clover's optimization objective (paper Sec. 4.1, Eqs. 1-6).
//
//   dAccuracy = (A(x) - A_base) / A_base * 100            (<= 0)
//   dCarbon   = (C_base - E(x)*ci) / C_base * 100
//   f(x)      = lambda * dCarbon + (1 - lambda) * dAccuracy       (maximize)
//   h(x)      = -f(x) * min(1, L_tail / L(x))                     (SA energy)
//
// E(x)*ci is the per-request carbon footprint at the *current* intensity;
// C_base is the per-request footprint of the BASE deployment at a fixed
// reference intensity ("the baseline is configurable and does not impact
// the solution quality"). The h punishment term keeps the search landscape
// smooth across the SLA boundary instead of cliffing to -inf.
//
// Extension (paper Sec. 5.2.3 / Fig. 14): accuracy loss can be enforced as
// a hard threshold; the objective subtracts a steep linear penalty (200 per
// % of excess loss) beyond the allowed loss so the annealer is driven back
// into the feasible region.
#pragma once

#include <optional>

namespace clover::opt {

// What an evaluation of one configuration measures.
struct EvalMetrics {
  double accuracy = 0.0;             // weighted accuracy of served requests
  double energy_per_request_j = 0.0; // IT joules per request
  double p95_ms = 0.0;               // measured tail latency
};

struct ObjectiveParams {
  double lambda = 0.5;          // carbon-vs-accuracy weight
  double a_base = 0.0;          // accuracy of the BASE scheme
  double c_base_g = 0.0;        // gCO2/request of BASE at the reference CI
  double l_tail_ms = 0.0;       // SLA target (p95 of BASE)
  double pue = 1.5;             // applied when converting joules to grams
  // Optional accuracy-threshold mode: maximum allowed accuracy loss (%).
  std::optional<double> max_accuracy_loss_pct;
};

// Per-request carbon footprint (g) of a configuration at intensity `ci`.
double CarbonPerRequestG(const EvalMetrics& metrics, double ci,
                         double pue);

// Eq. 1, in percent (<= 0 by construction since a_base is the max).
double DeltaAccuracyPct(const EvalMetrics& metrics,
                        const ObjectiveParams& params);

// Eq. 2, in percent.
double DeltaCarbonPct(const EvalMetrics& metrics,
                      const ObjectiveParams& params, double ci);

// Eq. 3 (plus the optional accuracy-threshold penalty).
double ObjectiveF(const EvalMetrics& metrics, const ObjectiveParams& params,
                  double ci);

// Eq. 6: the annealer's energy (minimized).
double AnnealEnergyH(double f, double p95_ms, double l_tail_ms);

// SLA predicate.
bool MeetsSla(const EvalMetrics& metrics, const ObjectiveParams& params);

}  // namespace clover::opt
