// bench_runner: named end-to-end performance suites with machine-readable
// output — the perf baseline every PR measures itself against.
//
//   bench_runner --suite smoke            fast suite (CI; a few seconds)
//   bench_runner --suite full             paper-scale suite (minutes)
//   flags: --threads N (default 4) --seed S --out DIR (default ".")
//
// Each suite emits <out>/BENCH_<suite>.json (clover-bench-v1, see
// exp/bench_json.h for the schema; scripts/validate_bench_json.py validates
// it) and prints the same numbers as a human table.
//
// Scenarios:
//   sim_hot_path     raw discrete-event simulator throughput (events/sec,
//                    p50/p99 simulated latency) on a BASE cluster
//   sharded_sim      ShardedClusterSim (sim/sharded_sim.h): independent
//                    lanes over the thread pool with the epoch-barrier
//                    merge; reports merged events/sec and enforces the
//                    shard determinism contract (--threads vs 1 thread
//                    must be bit-identical) via exit status
//   opt_screened     screen-then-simulate random search: the analytic
//                    surrogate (opt/surrogate.h) ranks a 16x oversampled
//                    pool, only the top slice is simulated; candidates
//                    counts considered configurations (simulated +
//                    screened) and the notes give the throughput ratio
//                    against the unscreened rate
//   opt_random       random search over ReplayEvaluator batches, 1 thread
//                    vs --threads; reports candidates/sec, speedup, and
//                    whether the two runs were bit-identical
//   opt_annealing    same comparison for the graph-space annealer
//   e2e_step         full trace -> controller -> simulator pipeline on the
//                    step trace (BASE + CLOVER), executed through the
//                    campaign engine (exp/runner.h) — the same code path
//                    `clover_campaign run` shards, so the bench and
//                    campaign pipelines cannot drift
//   fault_recovery   CLOVER riding out an injected GPU fail-stop plus a
//                    flash crowd (sim/fault_injector.h); reports events/sec
//                    and the completion ratio, and replays the identical
//                    schedule to enforce the fault engine's bit-identity
//                    contract via exit status
//   fleet_routing    geo-distributed fleet (us-west + ap-northeast, anti-
//                    correlated carbon): CLOVER per region under the
//                    carbon-greedy global router vs the static split;
//                    reports the spatial gCO2 saving and checks the fleet
//                    bit-identity contract (--threads vs 1 thread)
//   meanfield_fleet  the fluid fidelity tier at planet scale: the four
//                    region presets tiled into a replica fleet (100
//                    regions smoke / 1000 full) under carbon-greedy
//                    routing via fleet::RunFleetMeanField; reports
//                    regions/sec in the notes and replays a twin to
//                    enforce the tier's bit-identity contract
//   live_serving     the epoll serving front-end end to end: replays the
//                    trace-derived schedule over loopback TCP in flood
//                    mode (core/live_service.h); reports wire req/s and
//                    live virtual p50/p99, and enforces the worker-count
//                    invariance contract (--threads workers vs 1 must
//                    produce a bit-identical twin report and identical
//                    live latencies) via exit status
//   obs_overhead     the observability layer's own cost: the sharded-sim
//                    workload with instrumentation runtime-disabled vs
//                    enabled-but-idle (recording, nobody reading); notes
//                    give the throughput ratio, and the two summaries
//                    must be bit-identical (instrumentation never
//                    perturbs results)
//
// The whole suite runs with observability *enabled* (src/obs), so every
// bit-identity twin above doubles as proof that instrumentation does not
// perturb results. The suite dumps TRACE_<suite>.json (Chrome trace) and
// METRICS_<suite>.json next to the bench JSON, and a failed determinism
// gate writes a triage/<bench-scenario>/ bundle (obs/triage.h) before
// exiting nonzero.
//
// Exit status is nonzero when any parallel run failed the bit-identity
// check, so CI catches determinism regressions without a threshold.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "core/harness.h"
#include "core/live_service.h"
#include "exp/bench_json.h"
#include "exp/campaign.h"
#include "exp/runner.h"
#include "fleet/fleet_sim.h"
#include "fleet/meanfield_fleet.h"
#include "graph/neighbors.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/triage.h"
#include "opt/evaluator.h"
#include "opt/random_search.h"
#include "opt/surrogate.h"
#include "sim/arrivals.h"
#include "sim/sharded_sim.h"

namespace clover::bench {
namespace {

struct RunnerFlags {
  std::string suite = "smoke";
  int threads = 4;
  std::uint64_t seed = 1;
  std::string out_dir = ".";
};

RunnerFlags ParseRunnerFlags(int argc, char** argv) {
  RunnerFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      CLOVER_CHECK_MSG(i + 1 < argc, "missing value for " << arg);
      return argv[++i];
    };
    // Strict unsigned parse: stoull alone would accept trailing garbage
    // ("4x" -> 4) and wrap negatives (-1 -> 2^64-1); reject both with the
    // same diagnostic style the string flags produce.
    auto next_u64 = [&]() -> std::uint64_t {
      const std::string value = next();
      try {
        std::size_t consumed = 0;
        CLOVER_CHECK(!value.empty() && value.front() != '-');
        const std::uint64_t parsed = std::stoull(value, &consumed);
        CLOVER_CHECK(consumed == value.size());
        return parsed;
      } catch (const std::exception&) {
        std::cerr << "bad numeric value '" << value << "' for " << arg
                  << " (see --help)\n";
        std::exit(2);
      }
    };
    if (arg == "--suite") {
      flags.suite = next();
    } else if (arg == "--threads") {
      const std::uint64_t threads = next_u64();
      CLOVER_CHECK_MSG(threads >= 1 && threads <= 1024,
                       "--threads out of range: " << threads);
      flags.threads = static_cast<int>(threads);
    } else if (arg == "--seed") {
      flags.seed = next_u64();
    } else if (arg == "--out") {
      flags.out_dir = next();
    } else if (arg == "--help") {
      std::cout << "flags: --suite smoke|full --threads N --seed S "
                   "--out DIR\n";
      std::exit(0);
    } else {
      std::cerr << "unknown flag " << arg << " (see --help)\n";
      std::exit(2);
    }
  }
  CLOVER_CHECK_MSG(flags.suite == "smoke" || flags.suite == "full",
                   "unknown suite " << flags.suite);
  return flags;
}

// Per-suite scale knobs.
struct SuiteScale {
  int gpus = 4;
  double sim_seconds = 900.0;       // sim_hot_path span
  int candidates = 64;              // optimizer evaluations per search
  int random_batch = 16;            // random-search round size
  int anneal_batch = 8;             // annealer speculative round size
  double e2e_hours = 2.0;           // e2e_step span
  int fleet_gpus = 2;               // per fleet region
  double fleet_hours = 2.0;         // fleet_routing span
  int shard_lanes = 8;              // sharded_sim lane count
  double shard_seconds = 600.0;     // sharded_sim span
  int screen_factor = 16;           // opt_screened oversampling factor
  double live_hours = 0.25;         // live_serving span (virtual)
  int mf_replicas = 25;             // meanfield_fleet: 4 presets tiled
};

SuiteScale ScaleFor(const std::string& suite) {
  SuiteScale scale;
  if (suite == "full") {
    scale.gpus = 10;
    scale.sim_seconds = 7200.0;
    scale.candidates = 256;
    scale.e2e_hours = 12.0;
    scale.fleet_gpus = 5;
    scale.fleet_hours = 12.0;
    scale.shard_lanes = 16;
    scale.shard_seconds = 3600.0;
    scale.live_hours = 1.0;
    scale.mf_replicas = 250;  // the ISSUE's 1000-region acceptance cell
  }
  return scale;
}

carbon::CarbonTrace FlatBenchTrace() {
  return carbon::CarbonTrace("bench-flat", 3600.0,
                             std::vector<double>(48, 250.0));
}

// ---------------------------------------------------------------------------
// sim_hot_path: raw simulator throughput.
// ---------------------------------------------------------------------------
exp::ScenarioTiming RunSimHotPath(const RunnerFlags& flags,
                                  const SuiteScale& scale,
                                  const carbon::CarbonTrace& trace) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const models::Application app = models::Application::kClassification;
  serving::Deployment base = serving::MakeBase(app, scale.gpus);
  sim::SimOptions options;
  options.arrival_rate_qps = sim::SizeArrivalRate(zoo, app, scale.gpus);
  options.seed = flags.seed;
  sim::ClusterSim sim(base, zoo, &trace, options);

  WallTimer timer;
  sim.AdvanceTo(scale.sim_seconds);
  const double wall = timer.Seconds();

  exp::ScenarioTiming timing;
  timing.name = "sim_hot_path";
  timing.wall_seconds = wall;
  timing.events = sim.total_arrivals() + sim.total_completions();
  timing.events_per_sec =
      wall > 0.0 ? static_cast<double>(timing.events) / wall : 0.0;
  timing.sim_p50_ms = sim.OverallQuantileMs(0.50);
  timing.sim_p99_ms = sim.OverallQuantileMs(0.99);
  timing.notes = std::to_string(scale.gpus) + " GPUs, " +
                 std::to_string(static_cast<int>(scale.sim_seconds)) +
                 " simulated seconds";
  return timing;
}

// ---------------------------------------------------------------------------
// sharded_sim: lane-parallel simulation with the epoch-barrier merge.
// ---------------------------------------------------------------------------
exp::ScenarioTiming RunShardedSim(const RunnerFlags& flags,
                                  const SuiteScale& scale,
                                  const carbon::CarbonTrace& trace) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const models::Application app = models::Application::kClassification;
  // Small lanes, many of them: 2 GPUs per lane keeps the per-lane state
  // tiny so the scenario measures the sharding machinery, not one lane.
  const int lane_gpus = 2;
  const serving::Deployment lane = serving::MakeBase(app, lane_gpus);
  sim::ShardedSimOptions options;
  options.num_lanes = scale.shard_lanes;
  options.base.arrival_rate_qps =
      sim::SizeArrivalRate(zoo, app, lane_gpus) * options.num_lanes;
  options.base.seed = flags.seed;

  sim::ShardedClusterSim sharded(lane, zoo, &trace, options);
  ThreadPool pool(flags.threads);
  WallTimer timer;
  sharded.AdvanceTo(scale.shard_seconds, &pool);
  const double wall = timer.Seconds();
  const sim::ShardedSummary summary = sharded.Summary();

  exp::ScenarioTiming timing;
  timing.name = "sharded_sim";
  timing.wall_seconds = wall;
  timing.events = summary.sim_events;
  timing.events_per_sec =
      wall > 0.0 ? static_cast<double>(timing.events) / wall : 0.0;
  timing.sim_p50_ms = summary.p50_ms;
  timing.sim_p99_ms = summary.p99_ms;
  // The shard determinism contract: the thread count decides which slot
  // advances which lane, never what any lane computes. A serial twin must
  // reproduce the parallel run bit for bit (vacuous at --threads 1).
  if (flags.threads > 1) {
    sim::ShardedClusterSim twin(lane, zoo, &trace, options);
    twin.AdvanceTo(scale.shard_seconds, nullptr);
    timing.deterministic =
        sim::ShardedSummariesBitIdentical(summary, twin.Summary());
  }
  timing.notes = std::to_string(options.num_lanes) + " lanes x " +
                 std::to_string(lane_gpus) + " GPUs, " +
                 std::to_string(static_cast<int>(scale.shard_seconds)) +
                 " simulated seconds, " + std::to_string(flags.threads) +
                 " threads";
  return timing;
}

// ---------------------------------------------------------------------------
// opt_random / opt_annealing: parallel candidate evaluation.
// ---------------------------------------------------------------------------

// Shared context for the optimizer scenarios: a BASE-calibrated objective
// and replica options for the pure replay evaluator.
struct OptContext {
  const models::ModelZoo* zoo = nullptr;
  const carbon::CarbonTrace* trace = nullptr;
  int gpus = 0;
  opt::ReplayEvaluator::Options replay;
  opt::ObjectiveParams params;
  double ci = 250.0;
  graph::ConfigGraph start;

  OptContext() : start(models::Application::kClassification, 1) {}
};

OptContext MakeOptContext(const RunnerFlags& flags, const SuiteScale& scale,
                          const carbon::CarbonTrace& trace) {
  OptContext context;
  context.zoo = &models::DefaultZoo();
  context.trace = &trace;
  context.gpus = scale.gpus;
  const models::Application app = models::Application::kClassification;

  context.replay.arrival_rate_qps =
      sim::SizeArrivalRate(*context.zoo, app, scale.gpus);
  context.replay.settle_s = 2.0;
  context.replay.measure_window_s = 10.0;
  context.replay.seed = flags.seed;

  const serving::Deployment base = serving::MakeBase(app, scale.gpus);
  context.start = graph::ConfigGraph::FromDeployment(base, *context.zoo);
  context.replay = opt::ReplayEvaluator::CalibrateAgainst(
      context.zoo, context.trace, scale.gpus, context.start, context.replay,
      context.ci, &context.params);
  return context;
}

std::vector<std::unique_ptr<opt::Evaluator>> MakeReplicas(
    const OptContext& context, int count) {
  std::vector<std::unique_ptr<opt::Evaluator>> replicas;
  replicas.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    replicas.push_back(std::make_unique<opt::ReplayEvaluator>(
        context.zoo, context.trace, context.gpus, context.replay));
  return replicas;
}

struct SearchRun {
  opt::SearchResult result;
  double wall_seconds = 0.0;
};

SearchRun RunRandomOnce(const OptContext& context, const RunnerFlags& flags,
                        const SuiteScale& scale, int threads) {
  ThreadPool pool(threads);
  opt::ParallelBatchEvaluator batch(&pool, MakeReplicas(context, threads));
  // The serial-fallback evaluator is unused once a batch executor is set,
  // but the constructor requires one.
  opt::ReplayEvaluator fallback(context.zoo, context.trace, context.gpus,
                                context.replay);
  graph::GraphMapper mapper(context.zoo, context.gpus);
  opt::RandomSearch::Options options;
  options.max_evaluations = scale.candidates;
  options.no_improve_limit = 1 << 30;  // run the full candidate budget
  options.time_budget_s = 1e12;
  options.batch_size = scale.random_batch;
  opt::RandomSearch search(&fallback, &mapper, options, flags.seed);
  search.SetBatchEvaluator(&batch);

  SearchRun run;
  WallTimer timer;
  run.result = search.Run(context.start, context.params, context.ci);
  run.wall_seconds = timer.Seconds();
  return run;
}

SearchRun RunAnnealOnce(const OptContext& context, const RunnerFlags& flags,
                        const SuiteScale& scale, int threads) {
  ThreadPool pool(threads);
  opt::ParallelBatchEvaluator batch(&pool, MakeReplicas(context, threads));
  opt::ReplayEvaluator fallback(context.zoo, context.trace, context.gpus,
                                context.replay);
  graph::GraphMapper mapper(context.zoo, context.gpus);
  graph::NeighborSampler sampler(&mapper, flags.seed);
  opt::SimulatedAnnealing::Options options;
  options.max_evaluations = scale.candidates;
  options.no_improve_limit = 1 << 30;
  options.time_budget_s = 1e12;
  options.batch_size = scale.anneal_batch;
  opt::SimulatedAnnealing annealer(&fallback, &sampler, options, flags.seed);
  annealer.SetBatchEvaluator(&batch);

  SearchRun run;
  WallTimer timer;
  run.result = annealer.Run(context.start, context.params, context.ci);
  run.wall_seconds = timer.Seconds();
  return run;
}

// Random search with the analytic fast tier installed: each round draws
// screen_factor x batch_size candidates, the surrogate ranks them, and only
// the top batch-size slice pays for a replay evaluation.
SearchRun RunScreenedOnce(const OptContext& context, const RunnerFlags& flags,
                          const SuiteScale& scale, int threads) {
  ThreadPool pool(threads);
  opt::ParallelBatchEvaluator batch(&pool, MakeReplicas(context, threads));
  opt::ReplayEvaluator fallback(context.zoo, context.trace, context.gpus,
                                context.replay);
  graph::GraphMapper mapper(context.zoo, context.gpus);
  opt::SurrogateEvaluator surrogate(
      context.zoo, context.gpus,
      opt::SurrogateEvaluator::FromReplay(context.replay,
                                          sim::ServiceModel::kJittered,
                                          perf::kServiceJitterSigma));
  opt::RandomSearch::Options options;
  options.max_evaluations = scale.candidates;
  options.no_improve_limit = 1 << 30;
  options.time_budget_s = 1e12;
  options.batch_size = scale.random_batch;
  options.screen_factor = scale.screen_factor;
  opt::RandomSearch search(&fallback, &mapper, options, flags.seed);
  search.SetBatchEvaluator(&batch);
  search.SetSurrogate(&surrogate);

  SearchRun run;
  WallTimer timer;
  run.result = search.Run(context.start, context.params, context.ci);
  run.wall_seconds = timer.Seconds();
  return run;
}

// Screen-then-simulate throughput: candidates counts every configuration
// the search *considered* (simulated + surrogate-screened) — the fidelity
// tier's whole point is that considering a candidate no longer requires
// simulating it. The unscreened run with the same thread count anchors the
// throughput ratio in the notes.
exp::ScenarioTiming RunOptScreened(const OptContext& context,
                                   const RunnerFlags& flags,
                                   const SuiteScale& scale) {
  const SearchRun baseline = RunRandomOnce(context, flags, scale,
                                           flags.threads);
  const SearchRun serial = RunScreenedOnce(context, flags, scale, 1);
  const SearchRun parallel = RunScreenedOnce(context, flags, scale,
                                             flags.threads);

  exp::ScenarioTiming timing;
  timing.name = "opt_screened";
  timing.wall_seconds = parallel.wall_seconds;
  timing.candidates = parallel.result.evaluations.size() +
                      static_cast<std::uint64_t>(parallel.result.screened);
  timing.candidates_per_sec =
      parallel.wall_seconds > 0.0
          ? static_cast<double>(timing.candidates) / parallel.wall_seconds
          : 0.0;
  // Screening is serial and the surrogate is pure, so the usual contract
  // holds: thread count never changes the result.
  timing.deterministic =
      opt::SearchResultsBitIdentical(serial.result, parallel.result);
  const double baseline_rate =
      baseline.wall_seconds > 0.0
          ? static_cast<double>(baseline.result.evaluations.size()) /
                baseline.wall_seconds
          : 0.0;
  const double ratio = baseline_rate > 0.0
                           ? timing.candidates_per_sec / baseline_rate
                           : 0.0;
  timing.notes =
      std::to_string(parallel.result.evaluations.size()) + " simulated + " +
      std::to_string(parallel.result.screened) + " screened (x" +
      std::to_string(scale.screen_factor) + " pool), " +
      TextTable::Num(ratio, 1) + "x the unscreened rate (" +
      TextTable::Num(baseline_rate, 1) + " cand/s)";
  return timing;
}

template <typename RunOnce>
exp::ScenarioTiming CompareSerialParallel(const std::string& name,
                                          const RunnerFlags& flags,
                                          RunOnce&& run_once) {
  const SearchRun serial = run_once(1);
  const SearchRun parallel = run_once(flags.threads);

  exp::ScenarioTiming timing;
  timing.name = name;
  timing.wall_seconds = parallel.wall_seconds;
  timing.candidates = parallel.result.evaluations.size();
  timing.candidates_per_sec =
      parallel.wall_seconds > 0.0
          ? static_cast<double>(timing.candidates) / parallel.wall_seconds
          : 0.0;
  const double serial_rate =
      serial.wall_seconds > 0.0
          ? static_cast<double>(serial.result.evaluations.size()) /
                serial.wall_seconds
          : 0.0;
  timing.speedup_vs_serial =
      serial_rate > 0.0 ? timing.candidates_per_sec / serial_rate : 0.0;
  // The shared contract definition (opt/annealing.h), the same predicate
  // the unit tests assert.
  timing.deterministic =
      opt::SearchResultsBitIdentical(serial.result, parallel.result);
  timing.notes = std::to_string(timing.candidates) + " candidates, " +
                 std::to_string(flags.threads) + " threads vs 1 (" +
                 TextTable::Num(serial_rate, 1) + " cand/s serial)";
  return timing;
}

// ---------------------------------------------------------------------------
// fault_recovery: the verification subsystem's fault engine end to end.
// ---------------------------------------------------------------------------
exp::ScenarioTiming RunFaultRecovery(const RunnerFlags& flags,
                                     const SuiteScale& scale,
                                     const carbon::CarbonTrace& trace) {
  const int gpus = std::min(scale.gpus, 4);
  core::ExperimentConfig config;
  config.app = models::Application::kClassification;
  config.scheme = core::Scheme::kClover;
  config.trace = &trace;
  config.duration_hours = scale.e2e_hours;
  config.num_gpus = gpus;
  // Sized one GPU short so the mid-run fail-stop lands at the paper's 75%
  // calibration point instead of tipping the cluster over.
  config.sizing_gpus = gpus - 1;
  config.seed = flags.seed;
  const double third = HoursToSeconds(config.duration_hours) / 3.0;
  config.faults.gpu_faults.push_back({/*gpu_index=*/0, third, 1.5 * third});
  config.faults.flash_crowds.push_back({2.0 * third, 2.5 * third, 1.8});

  core::ExperimentHarness harness(&models::DefaultZoo());
  WallTimer timer;
  const core::RunReport run = harness.Run(config);
  const double wall = timer.Seconds();
  // Identical schedule, identical seed: the fault engine must replay
  // bit-identically (the determinism gate CI enforces via exit status).
  const core::RunReport twin = harness.Run(config);

  exp::ScenarioTiming timing;
  timing.name = "fault_recovery";
  timing.wall_seconds = wall;
  timing.events = run.sim_events;
  timing.events_per_sec =
      wall > 0.0 ? static_cast<double>(timing.events) / wall : 0.0;
  timing.sim_p50_ms = run.overall_p50_ms;
  timing.sim_p99_ms = run.overall_p99_ms;
  timing.deterministic = core::RunReportsBitIdentical(run, twin);
  const double completion_pct =
      run.arrivals ? 100.0 * static_cast<double>(run.completions) /
                         static_cast<double>(run.arrivals)
                   : 0.0;
  timing.notes = std::to_string(gpus) +
                 " GPUs, 1 fail-stop + 1.8x flash crowd over " +
                 TextTable::Num(config.duration_hours, 1) + " h; served " +
                 TextTable::Num(completion_pct, 2) + "% of arrivals";
  return timing;
}

// ---------------------------------------------------------------------------
// fleet_routing: spatial carbon arbitrage across anti-correlated regions.
// ---------------------------------------------------------------------------
fleet::FleetConfig MakeFleetConfig(const RunnerFlags& flags,
                                   const SuiteScale& scale,
                                   fleet::RouterPolicy policy, int threads) {
  fleet::FleetConfig config;
  config.app = models::Application::kClassification;
  // us-west and ap-northeast share the CISO March profile 12 h apart, so
  // their solar dips are anti-correlated — the setting where the spatial
  // lever matters most (and the same presets the fleet tests use).
  config.regions =
      fleet::RegionsFromPresets({"us-west", "ap-northeast"}, scale.fleet_gpus);
  config.duration_hours = scale.fleet_hours;
  config.scheme = core::Scheme::kClover;
  config.router = policy;
  config.seed = flags.seed;
  config.threads = threads;
  return config;
}

exp::ScenarioTiming RunFleetRouting(const RunnerFlags& flags,
                                    const SuiteScale& scale) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  WallTimer timer;
  const fleet::FleetReport greedy = fleet::RunFleet(
      MakeFleetConfig(flags, scale, fleet::RouterPolicy::kCarbonGreedy,
                      flags.threads),
      zoo);
  const double wall = timer.Seconds();
  const fleet::FleetReport static_split = fleet::RunFleet(
      MakeFleetConfig(flags, scale, fleet::RouterPolicy::kStatic,
                      flags.threads),
      zoo);

  exp::ScenarioTiming timing;
  timing.name = "fleet_routing";
  timing.wall_seconds = wall;
  timing.events = greedy.fleet.sim_events;
  timing.events_per_sec =
      wall > 0.0 ? static_cast<double>(timing.events) / wall : 0.0;
  timing.sim_p50_ms = greedy.fleet.overall_p50_ms;
  timing.sim_p99_ms = greedy.fleet.overall_p99_ms;
  // The fleet determinism contract: thread count never changes results.
  // At --threads 1 the twin would be configured identically, so the
  // comparison is vacuous and the extra simulation is skipped.
  if (flags.threads > 1) {
    const fleet::FleetReport greedy_serial = fleet::RunFleet(
        MakeFleetConfig(flags, scale, fleet::RouterPolicy::kCarbonGreedy, 1),
        zoo);
    timing.deterministic =
        fleet::FleetReportsBitIdentical(greedy, greedy_serial);
  }
  const double save_pct =
      greedy.fleet.CarbonSavePctVs(static_split.fleet);
  timing.notes = std::to_string(greedy.regions.size()) +
                 " regions (us-west + ap-northeast), carbon-greedy vs "
                 "static: " +
                 TextTable::Num(save_pct, 1) + "% gCO2, SLO attainment " +
                 TextTable::Num(greedy.slo_attainment * 100.0, 1) + "% vs " +
                 TextTable::Num(static_split.slo_attainment * 100.0, 1) +
                 "%";
  return timing;
}

// ---------------------------------------------------------------------------
// meanfield_fleet: the fluid fidelity tier at planet scale.
// ---------------------------------------------------------------------------
// Builds the cell through exp::MakeFleetCellConfig — the exact path the
// nightly 1000-region campaign (campaigns/fleet_1000region_toy.json) takes
// — so the bench measures what the campaign pays, replica tiling included.
exp::ScenarioTiming RunMeanFieldFleet(const RunnerFlags& flags,
                                      const SuiteScale& scale) {
  exp::CellSpec cell;
  cell.mode = exp::CampaignMode::kFleet;
  cell.scheme = core::Scheme::kBase;
  cell.app = models::Application::kClassification;
  cell.regions = {"us-west", "us-east", "eu-west", "ap-northeast"};
  cell.router = fleet::RouterPolicy::kCarbonGreedy;
  cell.meanfield = true;
  cell.region_replicas = scale.mf_replicas;
  cell.gpus = scale.fleet_gpus;
  cell.hours = scale.fleet_hours;
  cell.seed = flags.seed;
  const fleet::FleetConfig config = exp::MakeFleetCellConfig(cell);
  const models::ModelZoo& zoo = models::DefaultZoo();

  WallTimer timer;
  const fleet::FleetReport run = fleet::RunFleetMeanField(config, zoo);
  const double wall = timer.Seconds();
  // The fluid tier is RNG-free past trace generation, so a twin run must
  // reproduce the report bit for bit — same gate the unit test pins.
  const fleet::FleetReport twin = fleet::RunFleetMeanField(config, zoo);

  exp::ScenarioTiming timing;
  timing.name = "meanfield_fleet";
  timing.wall_seconds = wall;
  timing.events = run.fleet.sim_events;
  timing.events_per_sec =
      wall > 0.0 ? static_cast<double>(timing.events) / wall : 0.0;
  timing.sim_p50_ms = run.fleet.overall_p50_ms;
  timing.sim_p99_ms = run.fleet.overall_p99_ms;
  timing.deterministic = fleet::FleetReportsBitIdentical(run, twin);
  const double regions_per_sec =
      wall > 0.0 ? static_cast<double>(run.regions.size()) / wall : 0.0;
  timing.notes = std::to_string(run.regions.size()) +
                 " fluid regions (4 presets x " +
                 std::to_string(scale.mf_replicas) + "), carbon-greedy, " +
                 TextTable::Num(scale.fleet_hours, 1) + " h; " +
                 TextTable::Num(regions_per_sec, 1) + " regions/s, served " +
                 std::to_string(run.fleet.completions) + " of " +
                 std::to_string(run.fleet.arrivals);
  return timing;
}

// ---------------------------------------------------------------------------
// live_serving: the epoll front end + replay client over loopback TCP.
// ---------------------------------------------------------------------------
exp::ScenarioTiming RunLiveServing(const RunnerFlags& flags,
                                   const SuiteScale& scale,
                                   const carbon::CarbonTrace& trace) {
  core::ExperimentConfig config;
  config.app = models::Application::kClassification;
  config.scheme = core::Scheme::kClover;
  config.trace = &trace;
  config.duration_hours = scale.live_hours;
  config.num_gpus = config.sizing_gpus = std::min(scale.gpus, 4);
  config.seed = flags.seed;

  // One harness for both runs: the calibration cache makes the serial twin
  // reuse the flood run's BASE calibration instead of re-simulating it.
  core::ExperimentHarness harness(&models::DefaultZoo());
  auto run_once = [&](std::size_t workers) {
    core::LiveRunOptions options;
    options.worker_threads = workers;
    options.batch_max_requests = 512;  // flood mode: amortize the handoff
    return core::RunLiveExperiment(&harness, &models::DefaultZoo(), config,
                                   options);
  };

  WallTimer timer;
  const core::LiveRunResult run =
      run_once(static_cast<std::size_t>(flags.threads));
  const double wall = timer.Seconds();

  exp::ScenarioTiming timing;
  timing.name = "live_serving";
  timing.wall_seconds = wall;
  timing.events = run.replay.sent;
  // Wire throughput: requests pushed through the socket pair per wall
  // second of replay (excludes calibration/teardown, which `wall` keeps).
  timing.events_per_sec = run.replay.achieved_qps;
  timing.sim_p50_ms = run.stats.p50_virtual_ms;
  timing.sim_p99_ms = run.stats.p99_virtual_ms;
  // The worker-count invariance contract (serving/live_server.h): worker
  // threads only parallelize response encoding, never the virtual-time
  // section, so the twin report must be bit-identical and the live
  // latency distribution exactly equal. all_acked folds the transport
  // into the same gate: every request got exactly one response.
  timing.deterministic = run.replay.all_acked;
  if (flags.threads > 1) {
    const core::LiveRunResult serial = run_once(1);
    timing.deterministic =
        timing.deterministic && serial.replay.all_acked &&
        core::RunReportsBitIdentical(run.twin_report, serial.twin_report) &&
        run.stats.p50_virtual_ms == serial.stats.p50_virtual_ms &&
        run.stats.p99_virtual_ms == serial.stats.p99_virtual_ms &&
        run.stats.completed == serial.stats.completed &&
        run.commits.size() == serial.commits.size();
  }
  const double shed_pct =
      run.replay.sent > 0
          ? 100.0 * static_cast<double>(run.replay.shed()) /
                static_cast<double>(run.replay.sent)
          : 0.0;
  // The SLA is a p95 budget (params.l_tail_ms = BASE's calibrated p95);
  // p99 gets the conventional 2x of the p95 budget.
  const double slo_ms = run.twin_report.params.l_tail_ms;
  const double live_p95_ms = run.replay.ok_latency_virtual_ms.Quantile(0.95);
  const bool slo_ok =
      live_p95_ms <= slo_ms && timing.sim_p99_ms <= 2.0 * slo_ms;
  timing.notes =
      std::to_string(config.num_gpus) + " GPUs, " +
      std::to_string(flags.threads) + " workers vs 1, flood replay over " +
      TextTable::Num(scale.live_hours, 2) + " virtual h; shed " +
      TextTable::Num(shed_pct, 2) + "%, live p95 " +
      TextTable::Num(live_p95_ms, 1) + " ms vs SLO " +
      TextTable::Num(slo_ms, 1) + " ms, p99 " +
      TextTable::Num(timing.sim_p99_ms, 1) + " ms vs " +
      TextTable::Num(2.0 * slo_ms, 1) + " ms (" +
      (slo_ok ? "ok" : "OVER") + ")";
  return timing;
}

// ---------------------------------------------------------------------------
// obs_overhead: what the flight recorder costs when nobody is watching.
// ---------------------------------------------------------------------------
// Runs the sharded-sim workload twice: once with observability runtime-
// disabled (each macro site pays one relaxed load — the closest in-process
// stand-in for a CLOVER_OBS=OFF build) and once enabled-but-idle (counters
// increment, spans record, nothing is dumped). The acceptance budget is
// the enabled run staying within a few percent of the disabled one; the
// ratio lands in the notes column rather than a hard gate because wall
// time on shared CI is noisy. Bit-identity of the two summaries IS gated:
// instrumentation must never perturb simulation results.
exp::ScenarioTiming RunObsOverhead(const RunnerFlags& flags,
                                   const SuiteScale& scale,
                                   const carbon::CarbonTrace& trace) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const models::Application app = models::Application::kClassification;
  const int lane_gpus = 2;
  const serving::Deployment lane = serving::MakeBase(app, lane_gpus);
  sim::ShardedSimOptions options;
  options.num_lanes = std::max(scale.shard_lanes / 2, 2);
  options.base.arrival_rate_qps =
      sim::SizeArrivalRate(zoo, app, lane_gpus) * options.num_lanes;
  options.base.seed = flags.seed;
  const double span = scale.shard_seconds / 2.0;

  auto run_once = [&](double seconds) {
    sim::ShardedClusterSim sim(lane, zoo, &trace, options);
    ThreadPool pool(flags.threads);
    WallTimer timer;
    sim.AdvanceTo(seconds, &pool);
    return std::make_pair(sim.Summary(), timer.Seconds());
  };
  // Best-of-3 wall time per mode: at smoke scale a single run is a few
  // milliseconds, where scheduler noise dwarfs the relaxed-atomic cost
  // being measured. The minimum is the run with the least interference.
  auto run_best = [&]() {
    auto best = run_once(span);
    for (int i = 0; i < 2; ++i) {
      const auto rerun = run_once(span);
      if (rerun.second < best.second) best.second = rerun.second;
    }
    return best;
  };

  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(false);
  run_once(span / 4.0);  // warm-up: page in code + pool threads, discard
  const auto [off_summary, off_wall] = run_best();
  obs::SetEnabled(true);
  obs::Tracer::Get().Enable();
  const auto [on_summary, on_wall] = run_best();
  obs::SetEnabled(was_enabled);

  exp::ScenarioTiming timing;
  timing.name = "obs_overhead";
  timing.wall_seconds = on_wall;
  timing.events = on_summary.sim_events;
  timing.events_per_sec =
      on_wall > 0.0 ? static_cast<double>(timing.events) / on_wall : 0.0;
  timing.sim_p50_ms = on_summary.p50_ms;
  timing.sim_p99_ms = on_summary.p99_ms;
  timing.deterministic =
      sim::ShardedSummariesBitIdentical(off_summary, on_summary);
  const double off_rate =
      off_wall > 0.0 ? static_cast<double>(off_summary.sim_events) / off_wall
                     : 0.0;
  const double ratio =
      off_rate > 0.0 ? timing.events_per_sec / off_rate : 0.0;
  const double overhead_pct = ratio > 0.0 ? (1.0 - ratio) * 100.0 : 0.0;
  timing.notes = "enabled-idle vs disabled: " + TextTable::Num(ratio, 3) +
                 "x throughput (" + TextTable::Num(overhead_pct, 1) +
                 "% overhead, budget 3%), " +
                 std::to_string(options.num_lanes) + " lanes x " +
                 std::to_string(lane_gpus) + " GPUs, " +
                 std::to_string(static_cast<int>(span)) +
                 " simulated seconds";
  return timing;
}

}  // namespace
}  // namespace clover::bench

int main(int argc, char** argv) {
  using namespace clover;
  const bench::RunnerFlags flags = bench::ParseRunnerFlags(argc, argv);
  const bench::SuiteScale scale = bench::ScaleFor(flags.suite);
  const carbon::CarbonTrace flat = bench::FlatBenchTrace();

  // The whole suite runs with the flight recorder on: every bit-identity
  // twin below then also proves instrumentation never perturbs results
  // (obs_overhead measures what it costs).
  obs::SetEnabled(true);
  obs::Tracer::Get().Enable();

  std::cout << "==== bench_runner — suite " << flags.suite << " ====\n"
            << flags.threads << " threads | seed " << flags.seed << "\n\n";

  exp::SuiteTiming suite;
  suite.suite = flags.suite;
  suite.threads = flags.threads;
  suite.seed = flags.seed;

  suite.scenarios.push_back(bench::RunSimHotPath(flags, scale, flat));
  suite.scenarios.push_back(bench::RunShardedSim(flags, scale, flat));

  const bench::OptContext context = bench::MakeOptContext(flags, scale, flat);
  suite.scenarios.push_back(bench::CompareSerialParallel(
      "opt_random", flags, [&](int threads) {
        return bench::RunRandomOnce(context, flags, scale, threads);
      }));
  suite.scenarios.push_back(bench::CompareSerialParallel(
      "opt_annealing", flags, [&](int threads) {
        return bench::RunAnnealOnce(context, flags, scale, threads);
      }));
  suite.scenarios.push_back(bench::RunOptScreened(context, flags, scale));

  {
    // BASE + CLOVER on the step trace, executed through the campaign
    // engine — exactly what `clover_campaign run` would do for the same
    // two cells (tests/campaign_test.cc pins the engine's results to the
    // direct harness path, so routing the bench through it costs nothing
    // and keeps the two pipelines from drifting).
    exp::CampaignSpec campaign;
    campaign.name = "bench-e2e-step";
    campaign.threads = flags.threads;
    for (const core::Scheme scheme :
         {core::Scheme::kBase, core::Scheme::kClover}) {
      exp::CellSpec cell;
      cell.scheme = scheme;
      cell.app = models::Application::kClassification;
      cell.trace = "step";
      cell.gpus = std::min(scale.gpus, 4);
      cell.hours = scale.e2e_hours;
      cell.seed = flags.seed;
      campaign.cells.push_back(cell);
    }
    campaign.grid_cells = static_cast<int>(campaign.cells.size());
    exp::CampaignOptions options;
    options.threads = flags.threads;
    options.out_dir = flags.out_dir + "/campaign_e2e_step";
    bench::WallTimer timer;
    const exp::CampaignResult run = exp::RunCampaign(campaign, options);
    exp::ScenarioTiming timing = exp::FromReports(
        "e2e_step", timer.Seconds(),
        {run.cells[0].report, run.cells[1].report});
    timing.notes = "BASE + CLOVER step-trace cells via the campaign "
                   "engine (" + timing.notes + ")";
    suite.scenarios.push_back(timing);
  }

  {
    // Step trace: the fault windows land on moving carbon, so CLOVER keeps
    // optimizing through the failure.
    const carbon::CarbonTrace step = clover::carbon::CarbonTrace(
        "bench-step", 3600.0,
        [] {
          std::vector<double> values(48);
          for (std::size_t i = 0; i < values.size(); ++i)
            values[i] = (i / 2) % 2 == 0 ? 120.0 : 320.0;
          return values;
        }());
    suite.scenarios.push_back(bench::RunFaultRecovery(flags, scale, step));
  }

  suite.scenarios.push_back(bench::RunFleetRouting(flags, scale));
  suite.scenarios.push_back(bench::RunMeanFieldFleet(flags, scale));
  suite.scenarios.push_back(bench::RunLiveServing(flags, scale, flat));
  suite.scenarios.push_back(bench::RunObsOverhead(flags, scale, flat));

  std::filesystem::create_directories(flags.out_dir);
  const std::string json_path =
      flags.out_dir + "/BENCH_" + flags.suite + ".json";
  exp::WriteBenchJson(suite, json_path);
  exp::PrintSuiteTable(suite);
  std::cout << "\nwrote " << json_path << "\n";

  // Flight-recorder dumps: the suite's Chrome trace (Perfetto-loadable;
  // scripts/validate_trace_json.py checks it in CI) and the metrics
  // snapshot log.
  const std::string trace_path =
      flags.out_dir + "/TRACE_" + flags.suite + ".json";
  const std::string metrics_path =
      flags.out_dir + "/METRICS_" + flags.suite + ".json";
  obs::Tracer::Get().WriteChromeTrace(trace_path);
  obs::Registry::Get().WriteMetricsJson(metrics_path);
  std::cout << "wrote " << trace_path << " and " << metrics_path << "\n";

  bool deterministic = true;
  for (const exp::ScenarioTiming& scenario : suite.scenarios) {
    if (scenario.deterministic) continue;
    deterministic = false;
    // Self-diagnosing failure: capture everything needed to replay this
    // determinism breach from the artifact alone.
    obs::TriageContext context;
    context.name = "bench-" + scenario.name;
    context.reason = "bench scenario '" + scenario.name +
                     "' was not bit-identical to its serial twin";
    context.repro_command = "./build/bench/bench_runner --suite " +
                            flags.suite + " --threads " +
                            std::to_string(flags.threads) + " --seed " +
                            std::to_string(flags.seed);
    context.config = {{"suite", flags.suite},
                      {"scenario", scenario.name},
                      {"threads", std::to_string(flags.threads)},
                      {"seed", std::to_string(flags.seed)}};
    context.details = scenario.notes;
    const std::string bundle = obs::WriteTriageBundle(context);
    if (!bundle.empty())
      std::cerr << "bench: triage bundle written to " << bundle << "\n";
  }
  if (!deterministic) {
    std::cerr << "FAIL: parallel run was not bit-identical to serial\n";
    return 1;
  }
  return 0;
}
