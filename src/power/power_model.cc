#include "power/power_model.h"

#include "perf/calibration.h"
#include "perf/perf_model.h"

namespace clover::power {

double PowerModel::StaticWattsPerGpu() {
  return perf::kGpuIdleWatts + perf::kHostIdleWattsPerGpu;
}

double PowerModel::DynamicWatts(const models::ModelVariant& variant,
                                mig::SliceType slice) {
  const double slot_fraction = mig::ComputeFraction(slice);
  const double utilization = perf::PerfModel::SmUtilization(variant, slice);
  const double occupancy_factor =
      perf::kActivePowerFloor +
      (1.0 - perf::kActivePowerFloor) * utilization;
  return perf::kGpuMaxDynamicWatts * slot_fraction * occupancy_factor +
         perf::kHostDynamicWattsPerGpu * slot_fraction;
}

}  // namespace clover::power
