// Synthetic carbon-intensity trace generators.
//
// The paper evaluates on traces from the California ISO and the UK
// Electricity System Operator (Figs. 4, 8). Those feeds are not
// redistributable, so this module synthesizes traces with the documented
// macro-structure:
//
//   CISO March     solar "duck curve": deep midday dip (solar displaces
//                  gas), evening ramp peak; range ~100-350 gCO2/kWh.
//   CISO September less solar depth, higher base; range ~100-300.
//   ESO March      wind-dominated: weaker diurnal cycle, strong multi-hour
//                  stochastic swings; range ~50-300.
//
// Generation is deterministic given (profile, seed): two diurnal harmonics
// plus an Ornstein–Uhlenbeck weather process, clamped to the profile's
// floor. 48-hour evaluation traces (Fig. 8) and 14-day motivation traces
// (Fig. 4) use the same profiles. The harmonics (the diurnal shape) depend
// on the profile and a region's phase and amplitude only, so the batched
// region generator computes each distinct shape once and adds per-region
// weather to it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "carbon/trace.h"
#include "common/tokens.h"

namespace clover::carbon {

enum class TraceProfile {
  kCisoMarch = 0,
  kCisoSeptember = 1,
  kEsoMarch = 2,
};

inline constexpr int kNumTraceProfiles = 3;

inline constexpr EnumToken<TraceProfile> kTraceProfileTokens[] = {
    {"ciso-march", TraceProfile::kCisoMarch},
    {"ciso-september", TraceProfile::kCisoSeptember},
    {"eso-march", TraceProfile::kEsoMarch},
};

// The trace's name ("US-CISO-March", ...).
const char* TraceProfileName(TraceProfile profile);

// Every generated trace samples the intensity every 300 s (grid operators
// publish ~5-min data).
struct TraceGeneratorOptions {
  double duration_hours = 48.0;
  std::uint64_t seed = 42;
};

// Generates a trace for the given grid/season profile.
CarbonTrace GenerateTrace(TraceProfile profile,
                          const TraceGeneratorOptions& options = {});

// --- Degenerate analytic shapes -------------------------------------------
//
// Shared by the test fixtures (tests/testing/trace_fixtures.h) and the
// campaign engine's "flat"/"step" trace presets — one construction, so the
// two consumers can never drift.

// Constant intensity: any carbon saving must come from serving the same
// load with less energy, not from shifting work to cleaner hours.
CarbonTrace FlatTrace(double g_per_kwh, double duration_hours);

// Square wave alternating `low` and `high` gCO2/kWh every `period_hours`,
// starting low. Each edge is a guaranteed reoptimization trigger.
CarbonTrace StepTrace(double low, double high, double period_hours,
                      double duration_hours);

// --- Region presets (multi-region fleet serving) -------------------------
//
// A region is a grid profile placed on the globe: the diurnal harmonics are
// shifted by the region's longitude offset and scaled by a local amplitude
// factor, and the OU weather process is seeded per region name, so two
// regions sharing a profile still see independent weather. Phase shifts are
// the lever that makes spatial carbon arbitrage testable: two regions of
// the same profile 12 h apart have anti-correlated solar dips.
struct RegionPreset {
  std::string name;                                 // e.g. "us-west"
  TraceProfile profile = TraceProfile::kCisoMarch;  // underlying grid shape
  double phase_shift_hours = 0.0;  // shifts the diurnal harmonics
  double amplitude_scale = 1.0;    // scales dip/ramp/weather around the base
};

// The built-in named regions, shared by the fleet layer, the fleet bench
// and fig16 (so they all agree on inputs):
//   us-west       CISO March duck curve, phase 0 (the reference region)
//   us-east       CISO September, +3 h
//   eu-west       ESO March wind grid, +8 h
//   ap-northeast  CISO March shape, +12 h — anti-correlated with us-west
const std::vector<RegionPreset>& NamedRegionPresets();

// Looks a preset up by name; nullptr when unknown.
const RegionPreset* FindRegionPreset(std::string_view name);

// Generates the region's trace (named after the preset). With phase 0 and
// amplitude 1 this is GenerateTrace for the preset's profile except for the
// weather stream, which is seeded per region name.
CarbonTrace GenerateRegionTrace(const RegionPreset& preset,
                                const TraceGeneratorOptions& options = {});

// GenerateRegionTrace for each preset, in order, with values equal to it
// bit for bit. A trace is a diurnal shape — fixed by (profile, phase,
// amplitude) — plus the region's own weather, so the shape is computed once
// per distinct triple and shared: a fleet that tiles four presets over
// thousands of replicas evaluates four shapes, then only the weather.
std::vector<CarbonTrace> GenerateRegionTraces(
    const std::vector<RegionPreset>& presets,
    const TraceGeneratorOptions& options = {});

}  // namespace clover::carbon
