#include "fleet/window_fold.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace clover::fleet {

WindowFold::WindowFold(std::size_t regions,
                       const opt::ObjectiveParams& params,
                       double fallback_energy_per_request_j,
                       double slo_budget_ms, std::size_t windows_per_region)
    : params_(params),
      fallback_energy_per_request_j_(fallback_energy_per_request_j),
      slo_budget_ms_(slo_budget_ms),
      regions_(regions) {
  CLOVER_CHECK(regions > 0);
  for (RegionState& region : regions_)
    region.objective_series.reserve(windows_per_region);
}

void WindowFold::Push(std::size_t region, const sim::WindowRecord& window,
                      double penalty_ms) {
  RegionState& state = regions_[region];
  state.objective_series.push_back(core::WindowObjective(
      window, params_, fallback_energy_per_request_j_));
  state.queue.push_back({window, penalty_ms});
}

void WindowFold::FoldReady() {
  std::size_t ready = std::numeric_limits<std::size_t>::max();
  for (const RegionState& region : regions_)
    ready = std::min(ready, region.queue.size());
  if (ready == 0) return;
  for (std::size_t w = 0; w < ready; ++w) FoldIndex(w);
  // Erasing keeps each queue's storage, so steady state allocates nothing.
  for (RegionState& region : regions_)
    region.queue.erase(region.queue.begin(),
                       region.queue.begin() +
                           static_cast<std::ptrdiff_t>(ready));
}

namespace {

// The largest value v among `masses` (value, count) whose mass at or above
// v exceeds `tail`: what a walk down the masses sorted slowest first
// returns at the first point where the running count passes `tail`, ties
// included. Found by weighted selection instead of a sort: partition around
// a pivot into slower / as slow / faster, keep the part that holds the
// crossing, and carry the mass of the slower parts dropped on the way.
// Requires a crossing to exist (the total mass exceeds `tail`).
double TailValue(std::vector<std::pair<double, std::uint64_t>>* masses,
                 double tail) {
  auto lo = masses->begin();
  auto hi = masses->end();
  std::uint64_t above = 0;  // mass of the dropped slower parts
  for (;;) {
    const double pivot = lo[(hi - lo) / 2].first;
    const auto slower = std::partition(lo, hi, [pivot](const auto& mass) {
      return mass.first > pivot;
    });
    // !(x < pivot) keeps the pivot itself in the middle part, so every
    // round shrinks the range.
    const auto tied = std::partition(slower, hi, [pivot](const auto& mass) {
      return !(mass.first < pivot);
    });
    std::uint64_t mass_slower = above;
    for (auto it = lo; it != slower; ++it) mass_slower += it->second;
    if (static_cast<double>(mass_slower) > tail) {
      hi = slower;
      continue;
    }
    std::uint64_t mass_tied = mass_slower;
    for (auto it = slower; it != tied; ++it) mass_tied += it->second;
    if (static_cast<double>(mass_tied) > tail) return pivot;
    above = mass_tied;
    lo = tied;
  }
}

}  // namespace

// The window p95 approximates the merged distribution by one point mass per
// region at its p95 (plus its network penalty): walking the masses from
// slowest down, the 95th percentile is the first value with more than 5% of
// the completions at or above it. This handles both failure modes of
// simpler rules — a 3-request region cannot claim the fleet tail (a plain
// max would), yet several small slow regions whose combined mass straddles
// the 95% rank still do. max_ms stays the true maximum.
void WindowFold::FoldIndex(std::size_t w) {
  sim::WindowRecord window;
  double mean_weighted = 0.0, accuracy_weighted = 0.0, ci_energy = 0.0;
  tail_masses_.clear();
  for (const RegionState& region : regions_) {
    const sim::WindowRecord& region_window = region.queue[w].window;
    // Penalty as of this window's start: an active RTT spike shifts the
    // window's latency contribution (the run-level merged histogram keeps
    // the base penalty — spikes are windowed events, run quantiles are a
    // whole-run summary).
    const double penalty = region.queue[w].penalty_ms;
    window.start_s = region_window.start_s;
    window.duration_s = region_window.duration_s;
    window.arrivals += region_window.arrivals;
    window.completions += region_window.completions;
    window.energy_j += region_window.energy_j;
    window.carbon_g += region_window.carbon_g;
    if (region_window.completions > 0) {
      tail_masses_.emplace_back(region_window.p95_ms + penalty,
                                region_window.completions);
      window.max_ms = std::max(window.max_ms, region_window.max_ms + penalty);
      mean_weighted += (region_window.mean_ms + penalty) *
                       static_cast<double>(region_window.completions);
      accuracy_weighted += region_window.weighted_accuracy *
                           static_cast<double>(region_window.completions);
    }
    ci_energy += region_window.ci * region_window.energy_j;
  }
  if (!tail_masses_.empty())
    window.p95_ms = TailValue(
        &tail_masses_, 0.05 * static_cast<double>(window.completions));
  window.mean_ms =
      window.completions
          ? mean_weighted / static_cast<double>(window.completions)
          : 0.0;
  window.weighted_accuracy =
      window.completions
          ? accuracy_weighted / static_cast<double>(window.completions)
          : 0.0;
  // Blended intensity: energy-weighted mean over regions.
  window.ci = window.energy_j > 0.0 ? ci_energy / window.energy_j : 0.0;
  if (window.completions > 0) {
    ++counted_windows_;
    if (window.p95_ms <= slo_budget_ms_) ++slo_windows_;
  }
  windows_.push_back(window);
  objective_series_.push_back(core::WindowObjective(
      window, params_, fallback_energy_per_request_j_));
}

double WindowFold::slo_attainment() const {
  return counted_windows_ ? static_cast<double>(slo_windows_) /
                                static_cast<double>(counted_windows_)
                          : 0.0;
}

void WindowFold::TakeSeries(core::RunReport* fleet) {
  fleet->windows = std::move(windows_);
  fleet->objective_series = std::move(objective_series_);
}

}  // namespace clover::fleet
