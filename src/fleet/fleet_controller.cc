#include "fleet/fleet_controller.h"

#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace clover::fleet {

FleetController::FleetController(
    std::vector<std::unique_ptr<Region>>* regions, WindowFold* fold,
    const models::ModelZoo* zoo, Router* router,
    const opt::ObjectiveParams& params, double total_qps,
    const FleetControllerOptions& options)
    : regions_(regions),
      fold_(fold),
      zoo_(zoo),
      router_(router),
      options_(options),
      total_qps_(total_qps) {
  CLOVER_CHECK(regions_ != nullptr && !regions_->empty());
  CLOVER_CHECK(fold_ != nullptr && zoo_ != nullptr && router_ != nullptr);
  CLOVER_CHECK(total_qps_ > 0.0);
  CLOVER_CHECK(options_.threads >= 1);

  const bool adaptive = options_.scheme == core::Scheme::kClover ||
                        options_.scheme == core::Scheme::kBlover;
  if (adaptive) {
    controllers_.reserve(regions_->size());
    for (std::size_t i = 0; i < regions_->size(); ++i) {
      Region& region = *(*regions_)[i];
      core::Controller::Options controller_options = options_.controller;
      controller_options.scheme = options_.scheme;
      controller_options.seed = RegionSeed(options_.seed, i);
      controllers_.push_back(std::make_unique<core::Controller>(
          &region.sim(), zoo_, &region.trace(), params,
          controller_options));
    }
  }
  if (options_.threads > 1 && regions_->size() > 1)
    pool_ = std::make_unique<ThreadPool>(options_.threads);
  lanes_.resize(pool_ != nullptr ? static_cast<std::size_t>(
                                       pool_->num_threads())
                                 : 1);

  snapshots_.reserve(regions_->size());
  for (const auto& region : *regions_)
    snapshots_.push_back(region->Snapshot(0.0));
  rates_.resize(regions_->size());
  Rebalance();
  for (std::size_t i = 0; i < regions_->size(); ++i)
    (*regions_)[i]->SetAssignedRate(rates_[i]);
  rates_pending_ = false;
}

void FleetController::Step(double t) {
  CLOVER_OBS_COUNT("fleet.steps", 1);
  StepRegions(t, /*control=*/true);
  Rebalance();
  // The barrier is the fleet's deterministic point, so fold the metric
  // registry here.
  CLOVER_OBS_SAMPLE(t);
}

void FleetController::Finish(double end) {
  StepRegions(end, /*control=*/false);
}

void FleetController::StepRegions(double t, bool control) {
  auto step_region = [&](int slot, std::size_t i) {
    Region& region = *(*regions_)[i];
    Lane& lane = lanes_[static_cast<std::size_t>(slot)];
    if (rates_pending_) region.SetAssignedRate(rates_[i]);
    if (t > region.now()) region.AdvanceTo(t, &lane.tails);
    if (control) {
      // Offline regions — and online regions the router currently starves
      // (weight 0) — keep draining but do not optimize: an invocation
      // against a silenced stream measures zero completions for every
      // candidate and would poison the graph-keyed evaluation cache with
      // sla_ok=false entries that outlive the lull.
      if (!controllers_.empty() && region.OnlineAt(t) &&
          region.assigned_qps() > 0.0)
        controllers_[i]->Step();
      snapshots_[i] = region.Snapshot(t);
    }
    lane.closed.clear();
    region.TakeClosedWindows(&lane.closed);
    for (const sim::WindowRecord& window : lane.closed)
      fold_->Push(i, window, region.LatencyPenaltyAt(window.start_s));
  };
  {
    // Phase 1: regions advance independently (possibly in parallel).
    CLOVER_TRACE_SCOPE("fleet.step_regions");
    if (pool_ != nullptr) {
      pool_->ParallelFor(regions_->size(), step_region);
    } else {
      for (std::size_t i = 0; i < regions_->size(); ++i) step_region(0, i);
    }
    rates_pending_ = false;
  }
  CLOVER_TRACE_SCOPE("fleet.fold");
  fold_->FoldReady();
}

void FleetController::Rebalance() {
  CLOVER_TRACE_SCOPE("fleet.rebalance");
  std::vector<double> weights =
      router_->Split(snapshots_, total_qps_, options_.router);
  CLOVER_CHECK_MSG(weights.size() == regions_->size(),
                   "router returned " << weights.size() << " weights for "
                                      << regions_->size() << " regions");
  for (std::size_t i = 0; i < regions_->size(); ++i) {
    CLOVER_CHECK_MSG(weights[i] >= 0.0, "negative routing weight");
    rates_[i] = weights[i] * total_qps_;
  }
  rates_pending_ = true;
  weight_history_.push_back(std::move(weights));
}

std::vector<std::optional<core::ControllerSnapshot>>
FleetController::ControllerSnapshots() const {
  std::vector<std::optional<core::ControllerSnapshot>> snapshots(
      regions_->size());
  for (std::size_t i = 0; i < controllers_.size(); ++i)
    snapshots[i] = controllers_[i]->Snapshot();
  return snapshots;
}

std::uint64_t FleetController::total_cache_hits() const {
  std::uint64_t total = 0;
  for (const auto& controller : controllers_) total += controller->cache_hits();
  return total;
}

const core::Controller* FleetController::controller(
    std::size_t region_index) const {
  return region_index < controllers_.size()
             ? controllers_[region_index].get()
             : nullptr;
}

}  // namespace clover::fleet
