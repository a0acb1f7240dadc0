#include "opt/objective.h"

#include <algorithm>

#include "common/check.h"
#include "common/units.h"

namespace clover::opt {
namespace {

// Slope of the accuracy-threshold penalty (per % of excess loss).
constexpr double kThresholdPenalty = 200.0;

}  // namespace

double CarbonPerRequestG(const EvalMetrics& metrics, double ci, double pue) {
  return CarbonGrams(metrics.energy_per_request_j, ci, pue);
}

double DeltaAccuracyPct(const EvalMetrics& metrics,
                        const ObjectiveParams& params) {
  CLOVER_DCHECK(params.a_base > 0.0);
  return (metrics.accuracy - params.a_base) / params.a_base * 100.0;
}

double DeltaCarbonPct(const EvalMetrics& metrics,
                      const ObjectiveParams& params, double ci) {
  CLOVER_DCHECK(params.c_base_g > 0.0);
  const double carbon_g = CarbonPerRequestG(metrics, ci, params.pue);
  return (params.c_base_g - carbon_g) / params.c_base_g * 100.0;
}

double ObjectiveF(const EvalMetrics& metrics, const ObjectiveParams& params,
                  double ci) {
  const double d_accuracy = DeltaAccuracyPct(metrics, params);
  const double d_carbon = DeltaCarbonPct(metrics, params, ci);
  double f = params.lambda * d_carbon + (1.0 - params.lambda) * d_accuracy;
  if (params.max_accuracy_loss_pct.has_value()) {
    const double loss = -d_accuracy;  // positive when below baseline
    const double excess = loss - *params.max_accuracy_loss_pct;
    if (excess > 0.0) f -= kThresholdPenalty * excess;
  }
  return f;
}

double AnnealEnergyH(double f, double p95_ms, double l_tail_ms) {
  CLOVER_DCHECK(l_tail_ms > 0.0);
  const double sla_factor =
      p95_ms > 0.0 ? std::min(1.0, l_tail_ms / p95_ms) : 1.0;
  return -f * sla_factor;
}

bool MeetsSla(const EvalMetrics& metrics, const ObjectiveParams& params) {
  return metrics.p95_ms <= params.l_tail_ms;
}

}  // namespace clover::opt
