#include "core/live_control.h"

#include "common/check.h"

namespace clover::core {
namespace {

// The live path cannot serve ORACLE or CO2OPT; reject them before the twin
// calibrates.
const ExperimentConfig& CheckLiveScheme(const ExperimentConfig& config) {
  CLOVER_CHECK_MSG(config.scheme == Scheme::kBase ||
                       config.scheme == Scheme::kClover ||
                       config.scheme == Scheme::kBlover,
                   "live control plane serves BASE/CLOVER/BLOVER only");
  return config;
}

}  // namespace

LiveControlPlane::LiveControlPlane(ExperimentHarness* harness,
                                   const models::ModelZoo* zoo,
                                   const ExperimentConfig& config)
    : zoo_(zoo),
      run_(harness, CheckLiveScheme(config)),
      initial_(run_.sim().deployment()),
      last_deployment_(initial_) {
  CLOVER_CHECK(zoo == &harness->zoo());
}

void LiveControlPlane::OnVirtualAdvance(double virtual_ts_s,
                                        serving::VirtualExecutor* executor) {
  while (virtual_ts_s > run_.next_boundary_s() && run_.HasNextBoundary())
    FireBoundary(executor);
}

void LiveControlPlane::FireBoundary(serving::VirtualExecutor* executor) {
  const double boundary_s = run_.FireNextBoundary();
  const serving::Deployment& twin = run_.sim().deployment();
  if (serving::SameInstances(twin, last_deployment_)) return;
  last_deployment_ = twin;
  DeploymentCommit commit;
  commit.boundary_s = boundary_s;
  commit.deployment = twin;
  commit.ready_s = executor != nullptr
                       ? executor->ApplyDeployment(twin, *zoo_, boundary_s)
                       : boundary_s;
  commits_.push_back(std::move(commit));
}

void LiveControlPlane::Finish(serving::VirtualExecutor* executor) {
  while (run_.HasNextBoundary()) FireBoundary(executor);
  run_.Finish();
}

}  // namespace clover::core
