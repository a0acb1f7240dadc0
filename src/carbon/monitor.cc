#include "carbon/monitor.h"

#include <cmath>

#include "common/check.h"

namespace clover::carbon {

CarbonMonitor::CarbonMonitor(const CarbonTrace* trace) : trace_(trace) {
  CLOVER_CHECK(trace_ != nullptr);
}

double CarbonMonitor::IntensityAt(double t_seconds) const {
  return trace_->At(t_seconds);
}

bool CarbonMonitor::ShouldReoptimize(double t_seconds) const {
  if (!has_reference_) return true;
  const double now = IntensityAt(t_seconds);
  return std::abs(now - reference_intensity_) >
         kCiTrigger * reference_intensity_;
}

void CarbonMonitor::AcknowledgeOptimization(double t_seconds) {
  reference_intensity_ = IntensityAt(t_seconds);
  has_reference_ = true;
}

}  // namespace clover::carbon
