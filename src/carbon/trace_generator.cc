#include "carbon/trace_generator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"

namespace clover::carbon {
namespace {

struct ProfileParams {
  double base;            // mean level, gCO2/kWh
  double solar_dip;       // amplitude of the midday solar dip
  double evening_ramp;    // amplitude of the evening peak harmonic
  double ou_sigma;        // stationary std-dev of the weather process
  double ou_tau_hours;    // OU mean-reversion time constant
  double floor;           // physical lower bound of the grid mix
  double ceiling;         // upper bound
};

ProfileParams ParamsFor(TraceProfile profile) {
  switch (profile) {
    case TraceProfile::kCisoMarch:
      // Strong spring solar: deep duck-curve belly, sharp evening ramp.
      // Weather noise is slow (grid-scale CI moves on ramp timescales, not
      // minute to minute), so the controller's 5% trigger fires on the
      // solar/evening ramps rather than on sampling jitter.
      return {220.0, 95.0, 45.0, 14.0, 9.0, 90.0, 360.0};
    case TraceProfile::kCisoSeptember:
      // Shorter days, more AC load: shallower dip, higher trough.
      return {200.0, 60.0, 40.0, 13.0, 9.0, 100.0, 310.0};
    case TraceProfile::kEsoMarch:
      // Wind-dominated UK grid: weak diurnal cycle, large slow swings.
      return {170.0, 25.0, 30.0, 45.0, 30.0, 45.0, 310.0};
  }
  return {200.0, 50.0, 40.0, 25.0, 6.0, 80.0, 350.0};
}

// Shared generation core. `phase_shift_hours` moves the diurnal harmonics
// (a region's longitude offset); `amplitude_scale` multiplies the dip/ramp
// amplitudes and the weather sigma. With phase 0 and amplitude 1 the
// arithmetic reduces to the historical GenerateTrace exactly (x + 0.0 and
// x * 1.0 are bit-identical), so existing traces are unchanged.
CarbonTrace GenerateShaped(const ProfileParams& params,
                           const std::string& trace_name,
                           const std::string& stream_name,
                           double phase_shift_hours, double amplitude_scale,
                           const TraceGeneratorOptions& options) {
  RngStream rng(options.seed, stream_name);

  // At least one sample: a span shorter than one interval still has an
  // intensity. Longer spans keep floor(duration / interval) samples.
  const auto num_samples = std::max<std::size_t>(
      1, static_cast<std::size_t>(HoursToSeconds(options.duration_hours) /
                                  options.sample_interval_s));
  std::vector<double> values;
  values.reserve(num_samples);

  const double solar_dip = params.solar_dip * amplitude_scale;
  const double evening_ramp = params.evening_ramp * amplitude_scale;
  const double ou_sigma = params.ou_sigma * amplitude_scale;

  // Ornstein–Uhlenbeck weather process, exact discretization.
  const double dt_hours = options.sample_interval_s / 3600.0;
  const double decay = std::exp(-dt_hours / params.ou_tau_hours);
  const double innovation_sigma = ou_sigma * std::sqrt(1.0 - decay * decay);
  double weather = ou_sigma * rng.NextGaussian();

  constexpr double kTwoPi = 6.283185307179586;
  for (std::size_t i = 0; i < num_samples; ++i) {
    const double hour_of_day =
        std::fmod(static_cast<double>(i) * dt_hours + phase_shift_hours,
                  24.0);
    // Solar dip centered at 13:00 local (cos peaks there with this phase).
    const double solar =
        -solar_dip *
        std::max(0.0, std::cos(kTwoPi * (hour_of_day - 13.0) / 24.0));
    // Evening-ramp harmonic peaking at 20:00.
    const double ramp =
        evening_ramp * std::cos(kTwoPi * (hour_of_day - 20.0) / 12.0);
    weather = decay * weather + innovation_sigma * rng.NextGaussian();
    const double value =
        std::clamp(params.base + solar + ramp + weather, params.floor,
                   params.ceiling);
    values.push_back(value);
  }
  return CarbonTrace(trace_name, options.sample_interval_s,
                     std::move(values));
}

}  // namespace

const char* TraceProfileName(TraceProfile profile) {
  switch (profile) {
    case TraceProfile::kCisoMarch:
      return "US-CISO-March";
    case TraceProfile::kCisoSeptember:
      return "US-CISO-September";
    case TraceProfile::kEsoMarch:
      return "UK-ESO-March";
  }
  return "?";
}

CarbonTrace GenerateTrace(TraceProfile profile,
                          const TraceGeneratorOptions& options) {
  return GenerateShaped(ParamsFor(profile), TraceProfileName(profile),
                        std::string("carbon-trace-") +
                            TraceProfileName(profile),
                        /*phase_shift_hours=*/0.0, /*amplitude_scale=*/1.0,
                        options);
}

const std::vector<RegionPreset>& NamedRegionPresets() {
  static const std::vector<RegionPreset> kPresets = {
      {"us-west", TraceProfile::kCisoMarch, 0.0, 1.0},
      {"us-east", TraceProfile::kCisoSeptember, 3.0, 1.0},
      {"eu-west", TraceProfile::kEsoMarch, 8.0, 1.0},
      {"ap-northeast", TraceProfile::kCisoMarch, 12.0, 1.0},
  };
  return kPresets;
}

const RegionPreset* FindRegionPreset(std::string_view name) {
  for (const RegionPreset& preset : NamedRegionPresets())
    if (preset.name == name) return &preset;
  return nullptr;
}

CarbonTrace GenerateRegionTrace(const RegionPreset& preset,
                                const TraceGeneratorOptions& options) {
  return GenerateShaped(ParamsFor(preset.profile), preset.name,
                        "carbon-trace-region-" + preset.name,
                        preset.phase_shift_hours, preset.amplitude_scale,
                        options);
}

CarbonTrace FlatTrace(double g_per_kwh, double duration_hours,
                      double sample_interval_s) {
  CLOVER_CHECK(g_per_kwh > 0.0);
  CLOVER_CHECK(duration_hours > 0.0);
  const auto samples = static_cast<std::size_t>(
      std::ceil(duration_hours * 3600.0 / sample_interval_s)) + 1;
  return CarbonTrace("flat-" + std::to_string(g_per_kwh), sample_interval_s,
                     std::vector<double>(samples, g_per_kwh));
}

CarbonTrace StepTrace(double low, double high, double period_hours,
                      double duration_hours, double sample_interval_s) {
  CLOVER_CHECK(low > 0.0 && high > low);
  CLOVER_CHECK(period_hours > 0.0 && duration_hours > 0.0);
  const double period_s = period_hours * 3600.0;
  const auto samples = static_cast<std::size_t>(
      std::ceil(duration_hours * 3600.0 / sample_interval_s)) + 1;
  std::vector<double> values(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const double t = static_cast<double>(i) * sample_interval_s;
    const bool high_phase =
        static_cast<std::uint64_t>(std::floor(t / period_s)) % 2 == 1;
    values[i] = high_phase ? high : low;
  }
  return CarbonTrace("step-" + std::to_string(low) + "-" +
                         std::to_string(high),
                     sample_interval_s, std::move(values));
}

}  // namespace clover::carbon
