// Fleet-level control loop: per-region Clover controllers plus the global
// router's rebalance, one step per control interval.
//
// Each step has two phases:
//   1. Region step (parallel). Every region, in its own task: applies the
//      rate the last rebalance chose for it, advances its simulator —
//      discrete-event or fluid, whichever backend the region holds — to
//      the control boundary, runs its own core::Controller invocation when
//      the fleet runs an adaptive scheme, takes its router snapshot into
//      its own slot, and last hands the windows it closed to its own queue
//      and objective series in the fleet's WindowFold
//      (fleet/window_fold.h). Regions share no mutable state, so the steps
//      fan out over common/thread_pool; each fan-out slot lends its fluid
//      regions one M/M/c tail cache (sim::MmcTailCache), a pure function's
//      results, so which slot steps a region changes only time.
//   2. Barrier (serial). The fold folds every window index all regions
//      have closed; the router splits the stream over the snapshot slots,
//      read in region order, and the per-region rates land in one array
//      that the next region step applies — all on the calling thread.
// Every rebalance's rate is applied exactly once, changed or not: a
// discrete-event region's SetArrivalRate redraws its pending arrival. A
// rate applied at the start of the next step lands at the same simulated
// instant as one applied at the barrier (nothing advances the region in
// between). A snapshot taken in its region's step equals one taken after
// every region stepped (it reads only its own region), and phase 2 is a
// serial fold over the slots, so fleet runs are bit-identical across thread
// counts (asserted by tests/fleet_test.cc at 1/2/8 threads).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/controller.h"
#include "core/schemes.h"
#include "fleet/region.h"
#include "fleet/router.h"
#include "fleet/window_fold.h"
#include "opt/objective.h"
#include "sim/queueing.h"

namespace clover::fleet {

struct FleetControllerOptions {
  // Per-region scheme: kClover / kBlover get a controller each; kBase (or
  // any static scheme) runs the regions without one.
  core::Scheme scheme = core::Scheme::kClover;
  core::Controller::Options controller;  // template; seed is set per region
  RouterOptions router;
  int threads = 1;  // region-step fan-out width
  std::uint64_t seed = 1;
};

class FleetController {
 public:
  // `regions` and `fold` (one queue per region) must outlive the
  // controller, and `regions` must not be resized. The constructor
  // performs the initial rebalance at t = 0 and applies it at once, so
  // regions start at router-chosen rates rather than their
  // construction-time rates.
  FleetController(std::vector<std::unique_ptr<Region>>* regions,
                  WindowFold* fold, const models::ModelZoo* zoo,
                  Router* router, const opt::ObjectiveParams& params,
                  double total_qps, const FleetControllerOptions& options);

  // Phase 1 at boundary `t` (file comment), then the barrier: fold and
  // rebalance.
  void Step(double t);
  // Ends the run: applies the last split, advances every region still
  // behind `end`, and hands over and folds what they closed.
  void Finish(double end);

  // Moves out the routing weights, one entry per rebalance (index 0 = the
  // t=0 initial split). A fluid fleet's history runs to megabytes, so the
  // report takes it rather than copying it.
  std::vector<std::vector<double>> TakeWeightHistory() {
    return std::move(weight_history_);
  }

  // Per-region controller snapshots; entries are nullopt for schemes that
  // run without a controller.
  std::vector<std::optional<core::ControllerSnapshot>> ControllerSnapshots()
      const;
  std::uint64_t total_cache_hits() const;
  const core::Controller* controller(std::size_t region_index) const;

 private:
  // A fan-out slot's scratch: its fluid regions' tail cache and the
  // windows of the region it is handing over.
  struct Lane {
    sim::MmcTailCache tails;
    std::vector<sim::WindowRecord> closed;
  };

  // Phase 1 for every region: apply the pending rate, advance to `t`, and
  // (when `control`) run the controller and take the snapshot; then hand
  // over the closed windows. Ends with the fold.
  void StepRegions(double t, bool control);
  // Splits the stream over snapshots_ into rates_, pending for the next
  // region step.
  void Rebalance();

  std::vector<std::unique_ptr<Region>>* regions_;
  WindowFold* fold_;
  const models::ModelZoo* zoo_;
  Router* router_;
  FleetControllerOptions options_;
  double total_qps_;

  std::unique_ptr<ThreadPool> pool_;  // only when fan-out is possible
  std::vector<Lane> lanes_;           // one per fan-out slot
  std::vector<std::unique_ptr<core::Controller>> controllers_;  // may be empty
  // One slot per region, written by the region's own step, read by the
  // rebalance that follows.
  std::vector<RegionSnapshot> snapshots_;
  // The last split's per-region rates; applied by the next region step
  // while `rates_pending_`.
  std::vector<double> rates_;
  bool rates_pending_ = false;

  std::vector<std::vector<double>> weight_history_;
};

}  // namespace clover::fleet
