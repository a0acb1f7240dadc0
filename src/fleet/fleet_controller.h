// Fleet-level control loop: per-region Clover controllers plus the global
// router's rebalance, one step per control interval.
//
// Each step has two phases:
//   1. Region step (parallel). Every region advances its simulator —
//      discrete-event or fluid, whichever backend the region holds — to the
//      control boundary, runs its own core::Controller invocation when the
//      fleet runs an adaptive scheme, and last takes its router snapshot
//      into its own slot. Regions share no mutable state, so the steps fan
//      out over common/thread_pool.
//   2. Rebalance (serial). The router splits the stream over the snapshot
//      slots, read in region order, and the per-region arrival rates are
//      applied — all on the calling thread.
// A snapshot taken at the end of its region's step equals one taken after
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
#include "opt/objective.h"

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
  // `regions` must outlive the controller and not be resized. The
  // constructor performs the initial rebalance at t = 0, so regions start
  // at router-chosen rates rather than their construction-time rates.
  FleetController(std::vector<std::unique_ptr<Region>>* regions,
                  const models::ModelZoo* zoo, Router* router,
                  const opt::ObjectiveParams& params, double total_qps,
                  const FleetControllerOptions& options);

  // Advances every region to `t`, runs its control step and takes its
  // snapshot, then rebalances.
  void Step(double t);

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
  // Splits the stream over snapshots_ and applies the rates.
  void Rebalance();

  std::vector<std::unique_ptr<Region>>* regions_;
  const models::ModelZoo* zoo_;
  Router* router_;
  FleetControllerOptions options_;
  double total_qps_;

  std::unique_ptr<ThreadPool> pool_;  // only when fan-out is possible
  std::vector<std::unique_ptr<core::Controller>> controllers_;  // may be empty
  // One slot per region, written by the region's own step, read by the
  // rebalance that follows.
  std::vector<RegionSnapshot> snapshots_;

  std::vector<std::vector<double>> weight_history_;
};

}  // namespace clover::fleet
