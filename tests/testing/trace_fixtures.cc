#include "testing/trace_fixtures.h"

#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"

namespace clover::testing {

carbon::CarbonTrace FlatTrace(double g_per_kwh, double duration_hours) {
  return carbon::FlatTrace(g_per_kwh, duration_hours);
}

carbon::CarbonTrace ProfileTrace(carbon::TraceProfile profile,
                                 double duration_hours, std::uint64_t seed) {
  carbon::TraceGeneratorOptions options;
  options.duration_hours = duration_hours;
  options.seed = seed;
  return GenerateTrace(profile, options);
}

carbon::CarbonTrace StepTrace(double low, double high, double period_hours,
                              double duration_hours) {
  return carbon::StepTrace(low, high, period_hours, duration_hours);
}

}  // namespace clover::testing
