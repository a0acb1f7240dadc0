#include "core/harness.h"

#include <chrono>
#include <cmath>

#include "common/check.h"
#include "common/units.h"
#include "perf/calibration.h"
#include "sim/arrivals.h"

namespace clover::core {

double RunReport::CarbonSavePctVs(const RunReport& base) const {
  CLOVER_CHECK(base.total_carbon_g > 0.0);
  return (base.total_carbon_g - total_carbon_g) / base.total_carbon_g * 100.0;
}

double RunReport::AccuracyLossPctVs(const RunReport& base) const {
  CLOVER_CHECK(base.weighted_accuracy > 0.0);
  return (base.weighted_accuracy - weighted_accuracy) /
         base.weighted_accuracy * 100.0;
}

double RunReport::P95NormVs(const RunReport& base) const {
  CLOVER_CHECK(base.overall_p95_ms > 0.0);
  return overall_p95_ms / base.overall_p95_ms;
}

namespace {

// Both fidelity tiers expose the same report taps; one template keeps the
// fills from drifting apart.
template <typename Sim>
void FillRunReportFromSimImpl(const Sim& sim,
                              const opt::ObjectiveParams& params,
                              double fallback_energy_per_request_j,
                              RunReport* report) {
  report->arrivals = sim.total_arrivals();
  report->completions = sim.total_completions();
  report->total_energy_j = sim.total_energy_j();
  report->total_carbon_g = sim.total_carbon_g();
  report->weighted_accuracy = sim.OverallWeightedAccuracy();
  report->overall_p50_ms = sim.OverallQuantileMs(0.50);
  report->overall_p95_ms = sim.OverallP95Ms();
  report->overall_p99_ms = sim.OverallQuantileMs(0.99);
  report->sim_events = sim.total_arrivals() + sim.total_completions();
  report->carbon_per_request_g =
      report->completions
          ? report->total_carbon_g / static_cast<double>(report->completions)
          : 0.0;
  report->windows = sim.windows();
  report->objective_series.clear();
  report->objective_series.reserve(report->windows.size());
  for (const sim::WindowRecord& window : report->windows) {
    opt::EvalMetrics metrics;
    metrics.accuracy = window.weighted_accuracy;
    metrics.energy_per_request_j =
        window.completions
            ? window.energy_j / static_cast<double>(window.completions)
            : fallback_energy_per_request_j;
    metrics.p95_ms = window.p95_ms;
    report->objective_series.push_back(
        opt::ObjectiveF(metrics, params, window.ci));
  }
}

}  // namespace

void FillRunReportFromSim(const sim::ClusterSim& sim,
                          const opt::ObjectiveParams& params,
                          double fallback_energy_per_request_j,
                          RunReport* report) {
  FillRunReportFromSimImpl(sim, params, fallback_energy_per_request_j,
                           report);
}

void FillRunReportFromSim(const sim::MeanFieldSim& sim,
                          const opt::ObjectiveParams& params,
                          double fallback_energy_per_request_j,
                          RunReport* report) {
  FillRunReportFromSimImpl(sim, params, fallback_energy_per_request_j,
                           report);
}

bool RunReportsBitIdentical(const RunReport& a, const RunReport& b) {
  return a.arrivals == b.arrivals && a.completions == b.completions &&
         a.total_energy_j == b.total_energy_j &&
         a.total_carbon_g == b.total_carbon_g &&
         a.weighted_accuracy == b.weighted_accuracy &&
         a.overall_p50_ms == b.overall_p50_ms &&
         a.overall_p95_ms == b.overall_p95_ms &&
         a.overall_p99_ms == b.overall_p99_ms &&
         a.optimizations.size() == b.optimizations.size() &&
         a.objective_series == b.objective_series;
}

ExperimentHarness::ExperimentHarness(const models::ModelZoo* zoo)
    : zoo_(zoo) {
  CLOVER_CHECK(zoo_ != nullptr);
}

const BaselineCalibration& ExperimentHarness::Calibrate(
    models::Application app, int sizing_gpus, double utilization_target,
    std::optional<double> rate_override, std::uint64_t seed) {
  const double rate =
      rate_override.value_or(sim::SizeArrivalRate(*zoo_, app, sizing_gpus,
                                                  utilization_target));
  const auto key = std::make_tuple(static_cast<int>(app), sizing_gpus,
                                   static_cast<int>(std::lround(rate * 100)),
                                   seed);
  auto it = calibration_cache_.find(key);
  if (it != calibration_cache_.end()) return it->second;

  // Calibration run: BASE deployment, flat trace, 10-minute warmup then a
  // 30-minute measurement. The p95 of this run defines the SLA target.
  static const carbon::CarbonTrace kFlatTrace(
      "calibration", 3600.0, std::vector<double>(48, 250.0));
  serving::Deployment base = serving::MakeBase(app, sizing_gpus);
  sim::SimOptions options;
  options.arrival_rate_qps = rate;
  options.window_seconds = 300.0;
  options.seed = seed;
  sim::ClusterSim sim(base, *zoo_, &kFlatTrace, options);
  sim.AdvanceTo(MinutesToSeconds(10));
  const sim::Measurement measurement = sim.Measure(MinutesToSeconds(30));
  CLOVER_CHECK_MSG(measurement.completions > 0,
                   "calibration run served no requests");

  BaselineCalibration calibration;
  calibration.arrival_rate_qps = rate;
  calibration.l_tail_ms = measurement.p95_ms;
  calibration.energy_per_request_j = measurement.energy_per_request_j;
  calibration.a_base = measurement.weighted_accuracy;
  return calibration_cache_.emplace(key, calibration).first->second;
}

Oracle& ExperimentHarness::OracleFor(models::Application app, int num_gpus,
                                     double arrival_rate_qps,
                                     std::uint64_t seed) {
  const auto key =
      std::make_tuple(static_cast<int>(app), num_gpus,
                      static_cast<int>(std::lround(arrival_rate_qps * 100)),
                      seed);
  auto it = oracle_cache_.find(key);
  if (it == oracle_cache_.end()) {
    it = oracle_cache_
             .emplace(std::piecewise_construct, std::forward_as_tuple(key),
                      std::forward_as_tuple(zoo_, app, num_gpus,
                                            arrival_rate_qps, seed))
             .first;
    it->second.Profile();
  }
  return it->second;
}

RunReport ExperimentHarness::Run(const ExperimentConfig& config) {
  const auto wall_start = std::chrono::steady_clock::now();
  ExperimentRun run(this, config);
  run.Finish();
  RunReport report = run.Report();
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return report;
}

namespace {

std::vector<double> ControlBoundaries(double interval_s, double duration_s) {
  CLOVER_CHECK_MSG(interval_s > 0.0, "control interval must be positive");
  std::vector<double> boundaries;
  for (double t = interval_s; t <= duration_s + 1e-9; t += interval_s)
    boundaries.push_back(t);
  return boundaries;
}

}  // namespace

ExperimentRun::ExperimentRun(ExperimentHarness* harness,
                             const ExperimentConfig& config)
    : config_(config),
      duration_s_(HoursToSeconds(config.duration_hours)),
      boundaries_(ControlBoundaries(config.control_interval_s, duration_s_)) {
  CLOVER_CHECK(harness != nullptr && config.trace != nullptr);
  const models::ModelZoo* zoo = &harness->zoo();
  // Carbon-feed dropouts are repaired up front (last observation carried
  // forward, sim/fault_injector.h): the controller, accountant and oracle
  // all see the held reading, the way a production deployment would.
  const carbon::CarbonTrace* trace = config.trace;
  if (!config.faults.trace_dropouts.empty()) {
    repaired_trace_ = sim::ApplyTraceDropouts(*config.trace,
                                              config.faults.trace_dropouts);
    trace = &*repaired_trace_;
  }
  calibration_ =
      harness->Calibrate(config.app, config.sizing_gpus,
                         config.utilization_target, config.arrival_rate_qps,
                         config.seed);

  params_.lambda = config.lambda;
  params_.a_base = calibration_.a_base;
  params_.c_base_g = CarbonGrams(calibration_.energy_per_request_j,
                                 config.ci_base, perf::kPue);
  params_.l_tail_ms = calibration_.l_tail_ms;
  params_.pue = perf::kPue;
  params_.max_accuracy_loss_pct = config.accuracy_limit_pct;

  // Initial deployment per scheme (all schemes start at the paper's default
  // configuration except CO2OPT, which is statically defined, and ORACLE,
  // which starts at its selection for the opening intensity).
  serving::Deployment initial = serving::MakeBase(config.app, config.num_gpus);
  if (config.scheme == Scheme::kCo2Opt) {
    initial = serving::MakeCo2Opt(config.app, config.num_gpus, *zoo);
  } else if (config.scheme == Scheme::kOracle) {
    oracle_ = &harness->OracleFor(config.app, config.num_gpus,
                                  calibration_.arrival_rate_qps, config.seed);
    oracle_monitor_.emplace(trace, config.controller.ci_trigger);
    oracle_mapper_.emplace(zoo, config.num_gpus);
    const OracleEntry& entry = oracle_->Select(params_, trace->At(0.0));
    const auto deployment = oracle_mapper_->ToDeployment(entry.graph);
    CLOVER_CHECK(deployment.has_value());
    initial = *deployment;
    oracle_monitor_->AcknowledgeOptimization(0.0);
  }

  sim::SimOptions sim_options;
  sim_options.arrival_rate_qps = calibration_.arrival_rate_qps;
  sim_options.window_seconds = config.control_interval_s;
  sim_options.seed = config.seed;
  sim_options.burst = config.burst;
  sim_options.faults = config.faults;
  if (config.service_jitter_sigma.has_value())
    sim_options.service_jitter_sigma = *config.service_jitter_sigma;
  sim_ = std::make_unique<sim::ClusterSim>(std::move(initial), *zoo, trace,
                                           sim_options);

  if (config.scheme == Scheme::kClover || config.scheme == Scheme::kBlover) {
    Controller::Options controller_options = config.controller;
    controller_options.scheme = config.scheme;
    controller_options.seed = config.seed;
    controller_ = std::make_unique<Controller>(sim_.get(), zoo, trace,
                                               params_, controller_options);
  }
}

double ExperimentRun::FireNextBoundary() {
  CLOVER_CHECK(HasNextBoundary());
  const double target = std::min(boundaries_[fired_], duration_s_);
  if (target > sim_->now()) sim_->AdvanceTo(target);
  if (controller_ != nullptr) {
    controller_->Step();
  } else if (oracle_ != nullptr &&
             oracle_monitor_->ShouldReoptimize(sim_->now())) {
    const OracleEntry& entry = oracle_->Select(
        params_, oracle_monitor_->IntensityAt(sim_->now()));
    const auto deployment = oracle_mapper_->ToDeployment(entry.graph);
    CLOVER_CHECK(deployment.has_value());
    const mig::RepartitionCostModel kFreeReconfig{0.0, 0.0, 0.0};
    sim_->ApplyDeployment(*deployment, kFreeReconfig);
    oracle_monitor_->AcknowledgeOptimization(sim_->now());
  }
  ++fired_;
  return target;
}

void ExperimentRun::Finish() {
  while (HasNextBoundary()) FireNextBoundary();
  if (duration_s_ > sim_->now()) sim_->AdvanceTo(duration_s_);
  finished_ = true;
}

RunReport ExperimentRun::Report() const {
  CLOVER_CHECK_MSG(finished_, "Report before Finish()");
  RunReport report;
  report.app = config_.app;
  report.scheme = config_.scheme;
  report.arrival_rate_qps = calibration_.arrival_rate_qps;
  report.params = params_;
  FillRunReportFromSim(*sim_, params_, calibration_.energy_per_request_j,
                       &report);
  if (controller_ != nullptr) {
    report.optimizations = controller_->history();
    report.optimization_seconds = controller_->total_optimization_seconds();
    report.cache_hits = controller_->cache_hits();
  }
  return report;
}

}  // namespace clover::core
