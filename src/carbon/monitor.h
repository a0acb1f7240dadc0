// Carbon-intensity monitor with re-optimization trigger.
//
// The Clover controller "monitor[s] the real-time carbon intensity from the
// local grid and initiat[es] its optimization process as a reaction to
// changes" (paper Fig. 5). The evaluation triggers a new optimization when
// the intensity moved more than 5% relative to the value at the previous
// optimization run (Sec. 5.2.2).
#pragma once

#include "carbon/trace.h"

namespace clover::carbon {

// Relative intensity change that triggers a re-optimization (5%).
inline constexpr double kCiTrigger = 0.05;

class CarbonMonitor {
 public:
  explicit CarbonMonitor(const CarbonTrace* trace);

  // Current intensity at simulation time `t_seconds`.
  double IntensityAt(double t_seconds) const;

  // True when the intensity at `t_seconds` deviates from the reference
  // (the value captured by the last AcknowledgeOptimization) by more than
  // kCiTrigger of it. Always true before the first acknowledgement.
  bool ShouldReoptimize(double t_seconds) const;

  // Records that an optimization ran against the intensity at `t_seconds`.
  void AcknowledgeOptimization(double t_seconds);

  const CarbonTrace& trace() const { return *trace_; }

 private:
  const CarbonTrace* trace_;
  bool has_reference_ = false;
  double reference_intensity_ = 0.0;
};

}  // namespace clover::carbon
