#include "fleet/fleet_controller.h"

#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace clover::fleet {

FleetController::FleetController(
    std::vector<std::unique_ptr<Region>>* regions,
    const models::ModelZoo* zoo, Router* router,
    const opt::ObjectiveParams& params, double total_qps,
    const FleetControllerOptions& options)
    : regions_(regions),
      zoo_(zoo),
      router_(router),
      options_(options),
      total_qps_(total_qps) {
  CLOVER_CHECK(regions_ != nullptr && !regions_->empty());
  CLOVER_CHECK(zoo_ != nullptr && router_ != nullptr);
  CLOVER_CHECK(total_qps_ > 0.0);
  CLOVER_CHECK(options_.threads >= 1);

  const bool adaptive = options_.scheme == core::Scheme::kClover ||
                        options_.scheme == core::Scheme::kBlover;
  // Cache sharing only means anything when controllers exist; for static
  // schemes the flag must not cost the parallel region step.
  const bool sharing = options_.share_eval_cache && adaptive;
  if (sharing) {
    // Cached outcomes are keyed by configuration graph alone, so sharing is
    // only sound between regions whose evaluations are exchangeable —
    // i.e. the same cluster size (rates differ over time anyway; that
    // staleness is the cache's documented approximation).
    for (const auto& region : *regions_)
      CLOVER_CHECK_MSG(
          region->num_gpus() == (*regions_)[0]->num_gpus(),
          "share_eval_cache requires equal region fleet sizes");
    shared_cache_ = std::make_shared<opt::EvalCacheStore>();
  }
  if (adaptive) {
    controllers_.reserve(regions_->size());
    for (std::size_t i = 0; i < regions_->size(); ++i) {
      Region& region = *(*regions_)[i];
      core::Controller::Options controller_options = options_.controller;
      controller_options.scheme = options_.scheme;
      controller_options.seed = RegionSeed(options_.seed, i);
      controller_options.eval_cache = shared_cache_;
      controllers_.push_back(std::make_unique<core::Controller>(
          &region.sim(), zoo_, &region.trace(), params,
          controller_options));
    }
  }
  if (options_.threads > 1 && !sharing && regions_->size() > 1)
    pool_ = std::make_unique<ThreadPool>(options_.threads);

  Rebalance(0.0);
}

void FleetController::Step(double t) {
  CLOVER_OBS_COUNT("fleet.steps", 1);
  auto step_region = [&](std::size_t i) {
    Region& region = *(*regions_)[i];
    if (t > region.now()) region.AdvanceTo(t);
    // Offline regions — and online regions the router currently starves
    // (weight 0) — keep draining but do not optimize: an invocation against
    // a silenced stream measures zero completions for every candidate and
    // would poison the graph-keyed evaluation cache with sla_ok=false
    // entries that outlive the lull.
    if (!controllers_.empty() && region.OnlineAt(t) &&
        region.assigned_qps() > 0.0)
      controllers_[i]->Step();
  };
  {
    // Phase 1: regions advance independently (possibly in parallel).
    CLOVER_TRACE_SCOPE("fleet.step_regions");
    if (pool_ != nullptr) {
      pool_->ParallelFor(regions_->size(),
                         [&](int, std::size_t i) { step_region(i); });
    } else {
      for (std::size_t i = 0; i < regions_->size(); ++i) step_region(i);
    }
  }
  // Phase 2 (serial fold) — also the fleet's deterministic barrier, so
  // fold the metric registry here.
  Rebalance(t);
  CLOVER_OBS_SAMPLE(t);
}

void FleetController::Rebalance(double t) {
  CLOVER_TRACE_SCOPE("fleet.rebalance");
  std::vector<RegionSnapshot> snapshots;
  snapshots.reserve(regions_->size());
  for (const auto& region : *regions_) snapshots.push_back(region->Snapshot(t));
  std::vector<double> weights =
      router_->Split(snapshots, total_qps_, options_.router);
  CLOVER_CHECK_MSG(weights.size() == regions_->size(),
                   "router returned " << weights.size() << " weights for "
                                      << regions_->size() << " regions");
  for (std::size_t i = 0; i < regions_->size(); ++i) {
    CLOVER_CHECK_MSG(weights[i] >= 0.0, "negative routing weight");
    (*regions_)[i]->SetAssignedRate(weights[i] * total_qps_);
  }
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
  if (shared_cache_ != nullptr) return shared_cache_->hits();
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
