// The two fleet workloads.
//
// fleet_geo: fleet::RunFleet with a CLOVER controller per region over four
// region presets, 10 GPUs each, 12 h, four threads; once with the
// carbon-greedy router and once with the static one.
//
// fleet_fluid: a fleet-mode campaign on the mean-field tier, BASE over the
// four presets tiled 500 times (2000 fluid regions; the campaign grid caps
// region_replicas at 512), 10 GPUs, 48 h, static
// and carbon-greedy routing, through exp::RunCampaign on one thread.
#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include "bench.h"
#include "carbon/trace_generator.h"
#include "common/json.h"
#include "exp/campaign.h"
#include "exp/runner.h"
#include "fleet/fleet_sim.h"
#include "fleet/meanfield_fleet.h"
#include "models/zoo.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = clover::core;
namespace exp = clover::exp;
namespace fleet = clover::fleet;
namespace models = clover::models;

const std::vector<std::string> kPresets = {"us-west", "us-east", "eu-west",
                                           "ap-northeast"};
constexpr int kGpusPerRegion = 10;
constexpr double kGeoHours = 12.0;
constexpr int kGeoThreads = 4;
constexpr int kFluidReplicas = 500;
constexpr double kFluidHours = 48.0;

fleet::FleetConfig GeoConfig(std::uint64_t seed, fleet::RouterPolicy router,
                             int threads) {
  fleet::FleetConfig config;
  config.app = models::Application::kClassification;
  config.regions = fleet::RegionsFromPresets(kPresets, kGpusPerRegion);
  config.duration_hours = kGeoHours;
  config.scheme = core::Scheme::kClover;
  config.router = router;
  config.seed = seed;
  config.threads = threads;
  return config;
}

// The quality of the carbon-aware run (`aware`) and its trade against the
// reference run (`reference`).
void SetFleetQuality(const core::RunReport& aware,
                     const core::RunReport& reference, double sla_ms,
                     Result* result) {
  result->Check(aware.params.l_tail_ms == sla_ms &&
                    reference.params.l_tail_ms == sla_ms,
                "fleet SLA differs from the benchmark's own calibration");
  result->Set("carbon_save_pct", aware.CarbonSavePctVs(reference), "%");
  result->Set("accuracy_loss_pct", aware.AccuracyLossPctVs(reference), "%");
  result->Set("gco2_per_kreq", aware.carbon_per_request_g * 1e3, "g/kreq");
  result->Set("accuracy_pct", aware.weighted_accuracy, "%");
  result->Set("p95_over_sla", aware.overall_p95_ms / aware.params.l_tail_ms,
              "ratio");
  result->Set("goodput_frac",
              static_cast<double>(aware.completions) /
                  static_cast<double>(aware.arrivals),
              "fraction");
}

// One fleet entry call, timed from outside: wall and process CPU seconds.
struct TimedFleet {
  fleet::FleetReport report;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

template <typename Call>
TimedFleet TimeFleet(Call call) {
  TimedFleet timed;
  const double cpu = ProcessCpuSeconds();
  const double start = Now();
  timed.report = call();
  timed.wall_s = Now() - start;
  timed.cpu_s = ProcessCpuSeconds() - cpu;
  return timed;
}

void SetCpuPerWall(const TimedFleet& greedy, const TimedFleet& static_split,
                   Result* result) {
  result->Set("fleet.cpu_per_wall_greedy", greedy.cpu_s / greedy.wall_s,
              "cores");
  result->Set("fleet.cpu_per_wall_static",
              static_split.cpu_s / static_split.wall_s, "cores");
}

// Fleet-loop spans folded from a traced run: the fan-out and rebalance
// walls on the driving thread, optimizer time summed over pool threads.
void SetFleetLayers(const std::map<std::string, SpanTotals>& fold,
                    std::size_t regions, Result* result) {
  const auto step = fold.find("fleet.step_regions");
  const double step_s = step == fold.end() ? 0.0 : step->second.inclusive_s;
  const double steps =
      step == fold.end() ? 0.0 : static_cast<double>(step->second.count);
  result->Set("fleet.step_regions_s", step_s, "s");
  result->Set("fleet.rebalance_s", Inclusive(fold, "fleet.rebalance"), "s");
  result->Set("fleet.region_steps_per_s",
              step_s > 0 ? steps * static_cast<double>(regions) / step_s : 0.0,
              "1/s");
  result->Set("opt.invocation_s", Exclusive(fold, "opt.invocation"), "s");
  result->Set("opt.simulate_batch_s", Exclusive(fold, "opt.simulate_batch"),
              "s");
  result->Set("opt.screen_s", Exclusive(fold, "opt.screen"), "s");
  SetAttributedFraction(fold, "bench.traced_run", result);
}

// A fleet run's own set-up, done ahead of the timed call: the shared SLA
// calibration (as RunFleet anchors it, on the first region's size) and one
// carbon trace per region. Returns the calibrated SLA, which the fleet's
// report must carry.
double FleetSetup(const fleet::FleetConfig& config,
                  const models::ModelZoo& zoo) {
  core::ExperimentHarness harness(&zoo);
  const double sla_ms =
      harness
          .Calibrate(config.app, config.regions[0].num_gpus,
                     /*utilization_target=*/0.75, std::nullopt, config.seed)
          .l_tail_ms;
  clover::carbon::TraceGeneratorOptions options;
  options.duration_hours = config.duration_hours;
  options.seed = config.seed + 41;
  for (const fleet::RegionConfig& region : config.regions)
    clover::carbon::GenerateRegionTrace(region.preset, options);
  return sla_ms;
}

// Seed-1 figures of the two fleet workloads, and how far other seeds may
// stray from them (perfbench/NOTES.md).
constexpr double kGeoSeedOneSavePct = 12.2145;
constexpr double kGeoSeedOneLossPct = 0.1636;
constexpr double kGeoSeedOneSloGreedy = 5.0 / 144.0;  // of 144 steps
constexpr double kGeoSaveMinPct = 2.0;
constexpr double kGeoLossMaxPct = 4.0;
constexpr double kFluidSeedOneSavePct = -0.3953;
constexpr double kFluidSaveTolPts = 2.0;

// Carbon-greedy routing must buy carbon with little accuracy and no loss
// of SLO attainment against the static split.
void CheckGeoEnvelope(std::uint64_t seed, const fleet::FleetReport& greedy,
                      const fleet::FleetReport& static_split,
                      Result* result) {
  const double save = greedy.fleet.CarbonSavePctVs(static_split.fleet);
  const double loss = greedy.fleet.AccuracyLossPctVs(static_split.fleet);
  if (seed == 1) {
    CheckNear(save, kGeoSeedOneSavePct, 0.001, "geo carbon save % at seed 1",
              result);
    CheckNear(loss, kGeoSeedOneLossPct, 0.001,
              "geo accuracy loss % at seed 1", result);
    CheckNear(greedy.slo_attainment, kGeoSeedOneSloGreedy, 1e-6,
              "geo carbon-greedy SLO attainment at seed 1", result);
  }
  result->Check(save >= kGeoSaveMinPct,
                "carbon-greedy saves only " + Fixed(save, 2) + "% carbon");
  result->Check(loss <= kGeoLossMaxPct,
                "carbon-greedy loses " + Fixed(loss, 2) + "% accuracy");
  result->Check(greedy.slo_attainment >= static_split.slo_attainment,
                "carbon-greedy attains the SLO less often than static");
}

std::string FluidSpecText(std::uint64_t seed) {
  return R"({"schema": "clover-campaign-v1", "name": "perfbench_fleet_fluid",
    "mode": "fleet", "threads": 1, "grid": {"scheme": "base",
    "app": "classification",
    "regions": [["us-west", "us-east", "eu-west", "ap-northeast"]],
    "router": ["static", "carbon-greedy"], "fidelity": "meanfield",
    "region_replicas": )" +
         std::to_string(kFluidReplicas) +
         R"(, "gpus": 10, "hours": 48, "seed": )" + std::to_string(seed) +
         "}}";
}

}  // namespace

void RunFleetGeo(const Args& args, Result* result) {
  std::unique_ptr<models::ModelZoo> zoo;
  fleet::FleetConfig greedy_config, static_config;
  double sla_ms = 0.0;
  SetupTimer setup([&] {
    zoo = std::make_unique<models::ModelZoo>();
    greedy_config =
        GeoConfig(args.seed, fleet::RouterPolicy::kCarbonGreedy, kGeoThreads);
    static_config =
        GeoConfig(args.seed, fleet::RouterPolicy::kStatic, kGeoThreads);
    sla_ms = FleetSetup(greedy_config, *zoo);
  });

  TimedFleet greedy, static_split;
  std::vector<double> run_walls;  // mean per pass
  const std::vector<double> walls = RepeatPasses(args.seconds, &setup, [&] {
    greedy = TimeFleet([&] { return fleet::RunFleet(greedy_config, *zoo); });
    static_split =
        TimeFleet([&] { return fleet::RunFleet(static_config, *zoo); });
    result->attempted += 2;
    run_walls.push_back(0.5 * (greedy.wall_s + static_split.wall_s));
    return greedy.wall_s + static_split.wall_s;
  });
  result->Set("setup_s", setup.MedianSeconds(), "s");
  SetUnitLatency(run_walls, result);
  const double region_hours = 2.0 * kPresets.size() * kGeoHours;
  result->Set("region_hours_per_s", region_hours / Median(walls),
              "region-h/s");
  result->Note("fleet " + DescribePasses(walls));
  SetFleetQuality(greedy.report.fleet, static_split.report.fleet, sla_ms,
                  result);
  result->Set("slo_attainment", greedy.report.slo_attainment, "fraction");
  CheckGeoEnvelope(args.seed, greedy.report, static_split.report, result);
  result->Note("carbon-greedy vs static: carbon save " +
               Fixed(greedy.report.fleet.CarbonSavePctVs(
                         static_split.report.fleet), 2) +
               "%, SLO attainment " +
               Fixed(greedy.report.slo_attainment * 100, 1) + "% vs " +
               Fixed(static_split.report.slo_attainment * 100, 1) + "%");
  result->Set("peak_rss_mb", PeakRssMb(), "MiB");
  if (!args.trace) return;

  SetCpuPerWall(greedy, static_split, result);
  std::vector<const core::RunReport*> region_reports;
  for (const fleet::FleetReport* run : {&greedy.report, &static_split.report})
    for (const fleet::RegionReport& region : run->regions)
      region_reports.push_back(&region.report);
  SetOptMetrics(region_reports, result);
  EnableTracing();
  const double traced_start = TraceNow();
  fleet::FleetReport traced_greedy, traced_static;
  {
    clover::obs::ScopedSpan root("bench.traced_run");
    traced_greedy = fleet::RunFleet(greedy_config, *zoo);
    traced_static = fleet::RunFleet(static_config, *zoo);
  }
  SetTraceOverhead(TraceNow() - traced_start, Median(walls), result);
  SetFleetLayers(FoldSpans(CollectSpans(args, result)), kPresets.size(),
                 result);
  result->Check(
      fleet::FleetReportsBitIdentical(traced_greedy, greedy.report) &&
          fleet::FleetReportsBitIdentical(traced_static, static_split.report),
      "traced fleet run differs from the untraced one");
  // The fleet determinism contract: thread count never changes results.
  const fleet::FleetReport serial_greedy = fleet::RunFleet(
      GeoConfig(args.seed, fleet::RouterPolicy::kCarbonGreedy, 1), *zoo);
  const fleet::FleetReport serial_static = fleet::RunFleet(
      GeoConfig(args.seed, fleet::RouterPolicy::kStatic, 1), *zoo);
  result->Check(
      fleet::FleetReportsBitIdentical(serial_greedy, greedy.report) &&
          fleet::FleetReportsBitIdentical(serial_static, static_split.report),
      "fleet at 4 threads differs from 1 thread");
}

void RunFleetFluid(const Args& args, Result* result) {
  std::unique_ptr<models::ModelZoo> zoo;
  exp::CampaignSpec spec;
  double sla_ms = 0.0;
  SetupTimer setup([&] {
    zoo = std::make_unique<models::ModelZoo>();
    spec = exp::ParseCampaignSpec(clover::ParseJson(FluidSpecText(args.seed)));
    sla_ms = FleetSetup(exp::MakeFleetCellConfig(spec.cells.front()), *zoo);
  });

  exp::CampaignOptions options;
  options.threads = 1;
  options.out_dir = args.work_dir + "/campaign_fleet_fluid";
  std::filesystem::remove_all(options.out_dir);
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
  const std::size_t regions = kPresets.size() * kFluidReplicas;
  const double region_hours =
      static_cast<double>(spec.cells.size() * regions) * kFluidHours;
  result->Set("region_hours_per_s", region_hours / Median(walls),
              "region-h/s");
  result->Note("campaign " + DescribePasses(walls));

  const exp::CellOutcome* greedy = nullptr;
  const exp::CellOutcome* static_split = nullptr;
  for (const exp::CellOutcome& outcome : campaign.cells) {
    (outcome.cell.router == fleet::RouterPolicy::kCarbonGreedy ? greedy
                                                               : static_split) =
        &outcome;
  }
  result->Check(greedy != nullptr && static_split != nullptr,
                "campaign is missing a router cell");
  if (greedy == nullptr || static_split == nullptr) return;
  SetFleetQuality(greedy->report, static_split->report, sla_ms, result);
  // BASE everywhere: routing moves load between regions, never accuracy,
  // and over these anti-correlated traces carbon by well under a percent.
  const double fluid_save = greedy->report.CarbonSavePctVs(static_split->report);
  CheckNear(greedy->report.AccuracyLossPctVs(static_split->report), 0.0, 1e-6,
            "fluid fleet accuracy loss %", result);
  if (args.seed == 1) {
    CheckNear(fluid_save, kFluidSeedOneSavePct, 0.001,
              "fluid fleet carbon save % at seed 1", result);
  } else {
    CheckNear(fluid_save, 0.0, kFluidSaveTolPts, "fluid fleet carbon save %",
              result);
  }
  result->Note("carbon-greedy vs static: carbon save " +
               Fixed(greedy->report.CarbonSavePctVs(static_split->report), 3) +
               "%");
  result->Set("peak_rss_mb", PeakRssMb(), "MiB");
  if (!args.trace) return;

  result->Set("exp.overhead_s",
              campaign.wall_seconds - greedy->wall_seconds -
                  static_split->wall_seconds,
              "s");
  // Traced run: each cell through the fluid fleet entry point directly, so
  // CPU per wall is per router and the FleetReport's SLO view is visible.
  EnableTracing();
  const double traced_start = TraceNow();
  TimedFleet traced_greedy, traced_static;
  {
    clover::obs::ScopedSpan root("bench.traced_run");
    traced_greedy = TimeFleet([&] {
      return fleet::RunFleetMeanField(exp::MakeFleetCellConfig(greedy->cell),
                                      *zoo);
    });
    traced_static = TimeFleet([&] {
      return fleet::RunFleetMeanField(
          exp::MakeFleetCellConfig(static_split->cell), *zoo);
    });
  }
  SetTraceOverhead(TraceNow() - traced_start,
                   greedy->wall_seconds + static_split->wall_seconds, result);
  SetFleetLayers(FoldSpans(CollectSpans(args, result)), regions, result);
  SetCpuPerWall(traced_greedy, traced_static, result);
  result->Set("slo_attainment", traced_greedy.report.slo_attainment,
              "fraction");
  result->Check(core::RunReportsBitIdentical(traced_greedy.report.fleet,
                                             greedy->report) &&
                    core::RunReportsBitIdentical(traced_static.report.fleet,
                                                 static_split->report),
                "direct fluid fleet run differs from RunCampaign's cell");
}

}  // namespace perfbench
