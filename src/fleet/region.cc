#include "fleet/region.h"

#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "graph/config_graph.h"
#include "graph/mapping.h"

namespace clover::fleet {

std::uint64_t RegionSeed(std::uint64_t fleet_seed, std::size_t region_index) {
  // SplitMix64 over (seed, index) — the same derivation discipline as the
  // named RNG streams: adding a region never perturbs existing ones.
  std::uint64_t state = fleet_seed + 0x9e3779b97f4a7c15ULL *
                                         (static_cast<std::uint64_t>(
                                              region_index) +
                                          1);
  return SplitMix64(state);
}

Region::Region(const RegionConfig& config, const models::ModelZoo* zoo,
               carbon::CarbonTrace trace, serving::Deployment initial,
               const sim::SimOptions& sim_options, Backend backend)
    : config_(config),
      zoo_(zoo),
      trace_(std::move(trace)),
      assigned_qps_(sim_options.arrival_rate_qps) {
  CLOVER_CHECK(zoo_ != nullptr);
  CLOVER_CHECK_MSG(!config_.preset.name.empty(), "region needs a name");
  CLOVER_CHECK(config_.num_gpus > 0);
  CLOVER_CHECK(config_.latency_penalty_ms >= 0.0);
  if (backend == Backend::kDiscreteEvent) {
    cluster_ = std::make_unique<sim::ClusterSim>(std::move(initial), *zoo_,
                                                 &trace_, sim_options);
  } else {
    fluid_ = std::make_unique<sim::MeanFieldSim>(initial, *zoo_, &trace_,
                                                 sim_options);
  }
}

sim::ClusterSim& Region::sim() {
  CLOVER_CHECK_MSG(cluster_ != nullptr,
                   "region '" << name() << "' runs on the mean-field tier");
  return *cluster_;
}

double Region::now() const {
  return cluster_ ? cluster_->now() : fluid_->now();
}

void Region::AdvanceTo(double t) {
  if (cluster_) {
    cluster_->AdvanceTo(t);
  } else {
    fluid_->AdvanceTo(t);
  }
}

void Region::SetAssignedRate(double qps) {
  assigned_qps_ = qps;
  if (cluster_) {
    cluster_->SetArrivalRate(qps);
  } else {
    fluid_->SetArrivalRate(qps);
  }
}

double Region::LatencyPenaltyAt(double t) const {
  return sim::RttPenaltyAt(config_.faults.rtt_spikes,
                           config_.latency_penalty_ms, t);
}

RegionSnapshot Region::Snapshot(double t) const {
  RegionSnapshot snapshot;
  snapshot.online = OnlineAt(t);
  snapshot.ci = trace_.At(t);
  if (cluster_) {
    // Nominal capacity derated by active GPU fail-stops, so the router
    // reroutes around a partially failed region instead of filling it to a
    // margin its surviving GPUs cannot serve.
    snapshot.capacity_qps =
        graph::NominalCapacityQps(
            graph::ConfigGraph::FromDeployment(cluster_->deployment(), *zoo_),
            *zoo_) *
        cluster_->OnlineGpuFraction();
    snapshot.queue_depth = static_cast<double>(cluster_->queue_depth());
  } else {
    // The fluid tier has no fail-stops, and its queue is a backlog mass.
    snapshot.capacity_qps = fluid_->capacity_qps();
    snapshot.queue_depth = fluid_->backlog();
  }
  snapshot.assigned_qps = assigned_qps_;
  snapshot.latency_penalty_ms = LatencyPenaltyAt(t);
  snapshot.static_weight = config_.static_weight;
  return snapshot;
}

void Region::TakeClosedWindows(std::vector<sim::WindowRecord>* out) {
  if (cluster_) {
    cluster_->TakeWindows(out);
  } else {
    fluid_->TakeWindows(out);
  }
}

void Region::FillTotals(core::RunReport* report) const {
  if (cluster_) {
    core::FillRunTotalsFromSim(*cluster_, report);
  } else {
    core::FillRunTotalsFromSim(*fluid_, report);
  }
}

const LogHistogramQuantile& Region::latency_histogram() const {
  return cluster_ ? cluster_->latency_histogram()
                  : fluid_->latency_histogram();
}

}  // namespace clover::fleet
