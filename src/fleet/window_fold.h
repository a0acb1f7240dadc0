// The fleet's window fold: per-region windows in; each region's objective
// series and the fleet's window series, objective series and SLO
// attainment out, one control interval at a time, so the fleet never holds
// a region's whole window series.
//
// Each region's step (fleet/fleet_controller.h) ends by pushing the
// windows the region closed since its last step into the region's own
// queue, which also appends their objectives to the region's series;
// pushes for different regions touch disjoint state, so the steps may run
// in parallel. At the barrier that follows, FoldReady folds window index w
// as soon as every region has closed it. Regions need not close one window
// per barrier: a CLOVER region evaluates candidates on its
// production simulator (reconfigure, settle, measure), so its clock can
// overrun the boundary and close two windows in one step and none in the
// next. Its windows wait in a per-region queue until every region has
// closed the same index, so the fleet series ends at the smallest window
// count any region closed.
//
// Fleet window w folds the regions' windows w in region order: counters,
// energy and carbon are sums; mean latency and accuracy are
// completion-weighted, with each region's latencies shifted by its network
// penalty at the window's start; max is the true maximum; p95 is the
// point-mass rule in window_fold.cc; ci is the energy-weighted mean.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/harness.h"
#include "opt/objective.h"
#include "sim/metrics.h"

namespace clover::fleet {

class WindowFold {
 public:
  // `fallback_energy_per_request_j` scores windows that served nothing
  // (core::WindowObjective); windows whose p95 is at most `slo_budget_ms`
  // count toward slo_attainment(). Each region's objective series reserves
  // `windows_per_region` entries.
  WindowFold(std::size_t regions, const opt::ObjectiveParams& params,
             double fallback_energy_per_request_j, double slo_budget_ms,
             std::size_t windows_per_region);

  // Queues the next window of region `region`, closed with `penalty_ms` of
  // network latency in force at its start, and appends its objective to
  // the region's series. Touches only that region's state: pushes for
  // distinct regions may run concurrently, never alongside FoldReady.
  void Push(std::size_t region, const sim::WindowRecord& window,
            double penalty_ms);
  // Folds every window index that all regions have closed, in index order,
  // and drops those windows from the queues.
  void FoldReady();

  const std::vector<sim::WindowRecord>& windows() const { return windows_; }
  // Fraction of the folded windows with completions whose p95 met the SLO
  // budget (0 when none had completions).
  double slo_attainment() const;
  // Moves the folded windows and their objective series into `fleet`.
  void TakeSeries(core::RunReport* fleet);
  // Moves out region `region`'s objective series: one entry per window it
  // pushed, folded or not.
  std::vector<double> TakeRegionObjectiveSeries(std::size_t region) {
    return std::move(regions_[region].objective_series);
  }

 private:
  struct Queued {
    sim::WindowRecord window;
    double penalty_ms = 0.0;
  };
  struct RegionState {
    std::vector<Queued> queue;  // oldest first
    std::vector<double> objective_series;
  };

  void FoldIndex(std::size_t w);

  const opt::ObjectiveParams params_;
  const double fallback_energy_per_request_j_;
  const double slo_budget_ms_;
  std::vector<RegionState> regions_;
  std::vector<std::pair<double, std::uint64_t>> tail_masses_;  // scratch
  std::vector<sim::WindowRecord> windows_;
  std::vector<double> objective_series_;
  std::uint64_t counted_windows_ = 0;  // folded windows with completions
  std::uint64_t slo_windows_ = 0;      // ... whose p95 met the budget
};

}  // namespace clover::fleet
