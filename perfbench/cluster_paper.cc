// cluster_paper: the paper's headline experiment (Fig. 9) through the
// campaign engine, {BASE, CLOVER} x {detection, language, classification}
// over the first 12 h of the CISO March trace on 10 GPUs, one thread. (The
// figure runs 48 h; 12 h keeps a pass to a few seconds so a run measures
// several, and lands within the figure's envelope.)
//
// The traced run drives the harness loop from outside with a span around
// each public call (calibrate, sim advance, controller step, report fill)
// and must reproduce RunCampaign's reports bit for bit.
#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "bench.h"
#include "common/json.h"
#include "common/units.h"
#include "core/controller.h"
#include "core/harness.h"
#include "exp/campaign.h"
#include "exp/runner.h"
#include "models/zoo.h"
#include "obs/trace.h"
#include "perf/calibration.h"
#include "serving/deployment.h"
#include "sim/cluster_sim.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = clover::core;
namespace exp = clover::exp;
namespace models = clover::models;

constexpr double kHours = 12.0;

// CLOVER vs BASE carbon saving and accuracy loss, in percent, per
// application: the fig09 envelope at seed 1 (campaigns/fig09.json, 48 h),
// which every seed must stay near, and this workload's own figures at
// seed 1, which must reproduce. Other seeds draw other arrival streams and
// trace noise; the tolerances cover that spread (see perfbench/NOTES.md)
// while still failing a change that moves the headline result.
struct Envelope {
  models::Application app;
  double fig09_save_pct;
  double fig09_loss_pct;
  double seed_one_save_pct;
  double seed_one_loss_pct;
};
constexpr std::array<Envelope, 3> kEnvelope = {{
    {models::Application::kDetection, 71.3, 10.65, 73.2069, 10.8143},
    {models::Application::kLanguage, 80.1, 8.10, 83.2388, 10.0638},
    {models::Application::kClassification, 75.4, 3.47, 77.0962, 4.6583},
}};
constexpr double kCarbonSaveTolPts = 5.0;
constexpr double kAccuracyLossTolPts = 3.0;
constexpr double kSeedOneTolPts = 0.001;

std::string SpecText(std::uint64_t seed) {
  return R"({"schema": "clover-campaign-v1", "name": "perfbench_cluster_paper",
    "threads": 1, "grid": {"scheme": ["base", "clover"],
    "app": ["detection", "language", "classification"],
    "trace": "ciso-march", "gpus": 10, "hours": )" +
         std::to_string(static_cast<int>(kHours)) + R"(, "seed": )" +
         std::to_string(seed) + "}}";
}

// ExperimentHarness::Run for a fault-free BASE or CLOVER cell, step by
// step from outside, with a span around each public call.
core::RunReport TracedCell(const exp::CampaignSpec& spec,
                           const exp::CellSpec& cell,
                           const models::ModelZoo& zoo,
                           core::ExperimentHarness* harness) {
  using clover::obs::ScopedSpan;
  std::optional<clover::carbon::CarbonTrace> trace;
  {
    ScopedSpan span("carbon.trace_build");
    trace.emplace(exp::MakeCellTrace(cell));
  }
  const core::ExperimentConfig config =
      exp::MakeCellConfig(cell, spec.fault_profile, &*trace);
  const core::BaselineCalibration* calibration = nullptr;
  {
    ScopedSpan span("core.calibrate");
    calibration = &harness->Calibrate(config.app, config.sizing_gpus,
                                      config.utilization_target,
                                      config.arrival_rate_qps, config.seed);
  }
  clover::opt::ObjectiveParams params;
  params.lambda = config.lambda;
  params.a_base = calibration->a_base;
  params.c_base_g = clover::CarbonGrams(calibration->energy_per_request_j,
                                        config.ci_base, clover::perf::kPue);
  params.l_tail_ms = calibration->l_tail_ms;
  params.pue = clover::perf::kPue;
  params.max_accuracy_loss_pct = config.accuracy_limit_pct;

  std::unique_ptr<clover::sim::ClusterSim> sim;
  std::unique_ptr<core::Controller> controller;
  {
    ScopedSpan span("core.init");
    clover::sim::SimOptions options;
    options.arrival_rate_qps = calibration->arrival_rate_qps;
    options.window_seconds = config.control_interval_s;
    options.seed = config.seed;
    options.burst = config.burst;
    options.faults = config.faults;
    sim = std::make_unique<clover::sim::ClusterSim>(
        clover::serving::MakeBase(config.app, config.num_gpus), zoo,
        &*trace, options);
    if (config.scheme == core::Scheme::kClover) {
      core::Controller::Options controller_options = config.controller;
      controller_options.scheme = config.scheme;
      controller_options.seed = config.seed;
      controller = std::make_unique<core::Controller>(
          sim.get(), &zoo, &*trace, params, controller_options);
    }
  }
  const double duration_s = clover::HoursToSeconds(config.duration_hours);
  for (double t = config.control_interval_s; t <= duration_s + 1e-9;
       t += config.control_interval_s) {
    const double target = std::min(t, duration_s);
    if (target > sim->now()) {
      ScopedSpan span("sim.advance");
      sim->AdvanceTo(target);
    }
    if (controller != nullptr) {
      ScopedSpan span("core.control_step");
      controller->Step();
    }
  }
  if (duration_s > sim->now()) {
    ScopedSpan span("sim.advance");
    sim->AdvanceTo(duration_s);
  }

  ScopedSpan span("core.report");
  core::RunReport report;
  report.app = config.app;
  report.scheme = config.scheme;
  report.arrival_rate_qps = calibration->arrival_rate_qps;
  report.params = params;
  core::FillRunReportFromSim(*sim, params, calibration->energy_per_request_j,
                             &report);
  if (controller != nullptr) {
    report.optimizations = controller->history();
    report.optimization_seconds = controller->total_optimization_seconds();
    report.cache_hits = controller->cache_hits();
  }
  return report;
}

struct AppPair {
  const core::RunReport* base = nullptr;
  const core::RunReport* clover = nullptr;
};

std::array<AppPair, 3> PairByApp(const std::vector<exp::CellOutcome>& cells) {
  std::array<AppPair, 3> pairs{};
  for (const exp::CellOutcome& outcome : cells) {
    for (std::size_t i = 0; i < kEnvelope.size(); ++i) {
      if (outcome.cell.app != kEnvelope[i].app) continue;
      (outcome.cell.scheme == core::Scheme::kBase ? pairs[i].base
                                                  : pairs[i].clover) =
          &outcome.report;
    }
  }
  return pairs;
}

// Share of a run's control windows whose p95 met the calibrated SLA.
double SlaWindowShare(const core::RunReport& report) {
  std::size_t met = 0, counted = 0;
  for (const clover::sim::WindowRecord& window : report.windows) {
    if (window.completions == 0) continue;
    ++counted;
    if (window.p95_ms <= report.params.l_tail_ms) ++met;
  }
  return counted ? static_cast<double>(met) / static_cast<double>(counted)
                 : 0.0;
}

void SetQualityMetrics(const std::array<AppPair, 3>& pairs,
                       const std::map<models::Application, double>& sla_ms,
                       std::uint64_t seed, Result* result) {
  double save = 0, loss = 0, slo = 0, p95_ratio = 0, gco2 = 0, accuracy = 0,
         goodput = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const core::RunReport& base = *pairs[i].base;
    const core::RunReport& clover = *pairs[i].clover;
    const double app_save = clover.CarbonSavePctVs(base);
    const double app_loss = clover.AccuracyLossPctVs(base);
    const std::string app(models::ApplicationName(kEnvelope[i].app));
    result->Check(clover.params.l_tail_ms == sla_ms.at(kEnvelope[i].app),
                  app + " SLA differs from the benchmark's own calibration");
    result->Note(app + ": carbon save " + Fixed(app_save, 2) +
                 "%, accuracy loss " + Fixed(app_loss, 2) + "%");
    CheckNear(app_save, kEnvelope[i].fig09_save_pct, kCarbonSaveTolPts,
              app + " carbon save % (fig09 envelope)", result);
    CheckNear(app_loss, kEnvelope[i].fig09_loss_pct, kAccuracyLossTolPts,
              app + " accuracy loss % (fig09 envelope)", result);
    if (seed == 1) {
      CheckNear(app_save, kEnvelope[i].seed_one_save_pct, kSeedOneTolPts,
                app + " carbon save % at seed 1", result);
      CheckNear(app_loss, kEnvelope[i].seed_one_loss_pct, kSeedOneTolPts,
                app + " accuracy loss % at seed 1", result);
    }
    save += app_save / 3;
    loss += app_loss / 3;
    slo += SlaWindowShare(clover) / 3;
    p95_ratio += clover.overall_p95_ms / clover.params.l_tail_ms / 3;
    gco2 += clover.carbon_per_request_g * 1e3 / 3;
    accuracy += clover.weighted_accuracy / 3;
    goodput += static_cast<double>(clover.completions) /
               static_cast<double>(clover.arrivals) / 3;
  }
  result->Set("carbon_save_pct", save, "%");
  result->Set("accuracy_loss_pct", loss, "%");
  result->Set("slo_attainment", slo, "fraction");
  result->Set("p95_over_sla", p95_ratio, "ratio");
  result->Set("gco2_per_kreq", gco2, "g/kreq");
  result->Set("accuracy_pct", accuracy, "%");
  result->Set("goodput_frac", goodput, "fraction");
}

}  // namespace

void RunClusterPaper(const Args& args, Result* result) {
  std::unique_ptr<models::ModelZoo> zoo;
  exp::CampaignSpec spec;
  // Set-up: the zoo, the spec, each cell's trace, and the SLA calibration
  // of each application, which the campaign's reports must agree with.
  std::map<models::Application, double> sla_ms;
  SetupTimer setup([&] {
    zoo = std::make_unique<models::ModelZoo>();
    spec = exp::ParseCampaignSpec(clover::ParseJson(SpecText(args.seed)));
    core::ExperimentHarness harness(zoo.get());
    for (const exp::CellSpec& cell : spec.cells) {
      const clover::carbon::CarbonTrace trace = exp::MakeCellTrace(cell);
      const core::ExperimentConfig config =
          exp::MakeCellConfig(cell, spec.fault_profile, &trace);
      sla_ms[cell.app] =
          harness
              .Calibrate(config.app, config.sizing_gpus,
                         config.utilization_target, config.arrival_rate_qps,
                         config.seed)
              .l_tail_ms;
    }
  });

  exp::CampaignOptions options;
  options.threads = 1;
  options.out_dir = args.work_dir + "/campaign_cluster_paper";
  std::filesystem::remove_all(options.out_dir);

  const double region_hours = static_cast<double>(spec.cells.size()) * kHours;
  exp::CampaignResult campaign;
  std::vector<double> cell_walls;  // mean per pass
  const std::vector<double> walls = RepeatPasses(args.seconds, &setup, [&] {
    campaign = exp::RunCampaign(spec, options);
    result->attempted += campaign.cells.size();
    double cells_s = 0.0;
    for (const exp::CellOutcome& outcome : campaign.cells)
      cells_s += outcome.wall_seconds;
    cell_walls.push_back(cells_s / static_cast<double>(campaign.cells.size()));
    return campaign.wall_seconds;
  });
  result->Set("setup_s", setup.MedianSeconds(), "s");
  SetUnitLatency(cell_walls, result);
  result->Set("region_hours_per_s", region_hours / Median(walls),
              "region-h/s");
  result->Note("campaign " + DescribePasses(walls));
  const std::array<AppPair, 3> pairs = PairByApp(campaign.cells);
  for (const AppPair& pair : pairs) {
    result->Check(pair.base != nullptr && pair.clover != nullptr,
                  "campaign is missing a BASE/CLOVER cell");
    if (pair.base == nullptr || pair.clover == nullptr) return;
  }
  SetQualityMetrics(pairs, sla_ms, args.seed, result);
  result->Set("peak_rss_mb", PeakRssMb(), "MiB");
  if (!args.trace) return;

  // Traced run: the same six cells through the harness loop, spanned.
  double cells_wall = 0.0;
  std::vector<const core::RunReport*> reports;
  for (const exp::CellOutcome& outcome : campaign.cells) {
    cells_wall += outcome.wall_seconds;
    reports.push_back(&outcome.report);
  }
  result->Set("exp.overhead_s", campaign.wall_seconds - cells_wall, "s");
  SetOptMetrics(reports, result);

  EnableTracing();
  const double traced_start = TraceNow();
  core::ExperimentHarness harness(zoo.get());
  std::vector<core::RunReport> traced;
  {
    clover::obs::ScopedSpan root("bench.traced_run");
    for (const exp::CellSpec& cell : spec.cells)
      traced.push_back(TracedCell(spec, cell, *zoo, &harness));
  }
  const double traced_wall = TraceNow() - traced_start;
  const auto fold = FoldSpans(CollectSpans(args, result));
  for (std::size_t i = 0; i < traced.size(); ++i) {
    result->Check(core::RunReportsBitIdentical(traced[i],
                                               campaign.cells[i].report),
                  "traced loop differs from RunCampaign for cell " +
                      spec.cells[i].Name());
  }

  std::uint64_t events = 0;
  for (const core::RunReport& report : traced) events += report.sim_events;
  const double advance_s = Exclusive(fold, "sim.advance");
  result->Set("carbon.trace_build_s", Exclusive(fold, "carbon.trace_build"),
              "s");
  result->Set("core.calibrate_s", Exclusive(fold, "core.calibrate"), "s");
  result->Set("core.init_s", Exclusive(fold, "core.init"), "s");
  result->Set("core.control_step_s", Exclusive(fold, "core.control_step"),
              "s");
  result->Set("core.report_s", Exclusive(fold, "core.report"), "s");
  result->Set("sim.advance_s", advance_s, "s");
  result->Set("sim.events", static_cast<double>(events), "count");
  result->Set("sim.events_per_s",
              advance_s > 0 ? static_cast<double>(events) / advance_s : 0.0,
              "1/s");
  result->Set("opt.invocation_s", Exclusive(fold, "opt.invocation"), "s");
  result->Set("opt.simulate_batch_s", Exclusive(fold, "opt.simulate_batch"),
              "s");
  result->Set("opt.screen_s", Exclusive(fold, "opt.screen"), "s");
  SetAttributedFraction(fold, "bench.traced_run", result);
  // The untraced reference is RunCampaign minus its journal/fold overhead,
  // so the two walls time the same six cells.
  SetTraceOverhead(traced_wall,
                   Median(walls) - (campaign.wall_seconds - cells_wall),
                   result);
}

}  // namespace perfbench
