#include "core/live_control.h"

#include <limits>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

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

double BoundaryAt(const std::vector<double>& boundaries, std::size_t i) {
  return i < boundaries.size() ? boundaries[i]
                               : std::numeric_limits<double>::infinity();
}

}  // namespace

LiveControlPlane::LiveControlPlane(ExperimentHarness* harness,
                                   const models::ModelZoo* zoo,
                                   const ExperimentConfig& config)
    : zoo_(zoo),
      run_(harness, CheckLiveScheme(config)),
      initial_(run_.sim().deployment()),
      arrival_rate_qps_(run_.calibration().arrival_rate_qps),
      duration_s_(run_.duration_s()),
      control_interval_s_(config.control_interval_s),
      next_boundary_s_(BoundaryAt(run_.boundaries(), 0)) {
  CLOVER_CHECK(zoo == &harness->zoo());
  twin_ = std::thread(&LiveControlPlane::TwinLoop, this);
}

LiveControlPlane::~LiveControlPlane() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  twin_cv_.notify_one();
  if (twin_.joinable()) twin_.join();
}

void LiveControlPlane::TwinLoop() {
  try {
    serving::Deployment last = initial_;
    while (run_.HasNextBoundary()) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        twin_cv_.wait(lock,
                      [&] { return stop_ || fired_.size() < kTwinLead; });
        if (stop_) return;
      }
      FiredBoundary fired;
      {
        CLOVER_TRACE_SCOPE("core.twin_step");
        fired.boundary_s = run_.FireNextBoundary();
        const serving::Deployment& twin = run_.sim().deployment();
        if (!serving::SameInstances(twin, last)) {
          last = twin;
          fired.changed = twin;
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        fired_.push_back(std::move(fired));
      }
      worker_cv_.notify_one();
    }
    run_.Finish();
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      twin_error_ = std::current_exception();
    }
    worker_cv_.notify_one();
  }
}

void LiveControlPlane::ApplyNextBoundary(serving::VirtualExecutor* executor) {
  FiredBoundary fired;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (fired_.empty() && twin_error_ == nullptr) {
      CLOVER_TRACE_SCOPE("core.twin_wait");
      worker_cv_.wait(
          lock, [&] { return !fired_.empty() || twin_error_ != nullptr; });
    }
    if (twin_error_ != nullptr) std::rethrow_exception(twin_error_);
    fired = std::move(fired_.front());
    fired_.pop_front();
  }
  twin_cv_.notify_one();
  next_boundary_s_ = BoundaryAt(run_.boundaries(), ++crossed_);
  if (!fired.changed.has_value()) return;
  DeploymentCommit commit;
  commit.boundary_s = fired.boundary_s;
  commit.ready_s = executor != nullptr
                       ? executor->ApplyDeployment(*fired.changed, *zoo_,
                                                   fired.boundary_s)
                       : fired.boundary_s;
  commit.deployment = std::move(*fired.changed);
  commits_.push_back(std::move(commit));
}

void LiveControlPlane::Finish(serving::VirtualExecutor* executor) {
  while (crossed_ < run_.boundaries().size()) ApplyNextBoundary(executor);
  if (twin_.joinable()) twin_.join();
  if (twin_error_ != nullptr) std::rethrow_exception(twin_error_);
}

RunReport LiveControlPlane::TwinReport() const {
  CLOVER_CHECK_MSG(!twin_.joinable(), "TwinReport before Finish()");
  return run_.Report();
}

}  // namespace clover::core
