// Carbon-intensity trace fixtures for the scenario matrix.
//
// The synthetic profiles in carbon/trace_generator.h reproduce the paper's
// grids; the fixtures here expose the degenerate shapes tests need on top:
// a flat trace (isolates energy-driven savings from intensity-chasing) and
// a square-wave step trace (deterministic sharp swings that exercise the
// controller's CI trigger without OU-process noise). Both forward to the
// shared builders in carbon/trace_generator.h — the campaign engine's
// "flat"/"step" presets use the same construction, so the two can never
// drift.
#pragma once

#include <cstdint>

#include "carbon/trace.h"
#include "carbon/trace_generator.h"

namespace clover::testing {

// Constant intensity: any carbon saving must come from serving the same
// load with less energy, not from shifting work to cleaner hours.
carbon::CarbonTrace FlatTrace(double g_per_kwh, double duration_hours);

// Synthetic grid profile at scenario scale (deterministic per seed).
carbon::CarbonTrace ProfileTrace(carbon::TraceProfile profile,
                                 double duration_hours, std::uint64_t seed);

// Square wave alternating `low` and `high` gCO2/kWh every `period_hours`,
// starting low. Each edge is a guaranteed reoptimization trigger.
carbon::CarbonTrace StepTrace(double low, double high, double period_hours,
                              double duration_hours);

}  // namespace clover::testing
