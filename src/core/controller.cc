#include "core/controller.h"

#include "common/check.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/perf_model.h"

namespace clover::core {

Controller::Controller(sim::ClusterSim* sim, const models::ModelZoo* zoo,
                       const carbon::CarbonTrace* trace,
                       const opt::ObjectiveParams& params,
                       const Options& options)
    : sim_(sim),
      zoo_(zoo),
      params_(params),
      options_(options),
      monitor_(trace, options.ci_trigger),
      mapper_(zoo, sim->num_gpus()),
      sampler_(&mapper_, options.seed),
      probe_rng_(options.seed, "cold-start-probes"),
      last_compliant_(
          graph::ConfigGraph::FromDeployment(sim->deployment(), *zoo)) {
  CLOVER_CHECK(sim_ != nullptr && zoo_ != nullptr);
  CLOVER_CHECK(options_.scheme == Scheme::kClover ||
               options_.scheme == Scheme::kBlover);

  // In the reduced-provisioning study (paper Fig. 15) the initial BASE
  // deployment cannot carry the offered load at all; the recovery fallback
  // must then be the highest-capacity configuration (CO2OPT: finest
  // partition, smallest variant) rather than the overloaded incumbent.
  const double min_capacity =
      options_.capacity_margin * sim_->options().arrival_rate_qps;
  if (graph::NominalCapacityQps(last_compliant_, *zoo_) < min_capacity) {
    last_compliant_ = graph::ConfigGraph::FromDeployment(
        serving::MakeCo2Opt(sim_->deployment().app, sim_->num_gpus(), *zoo_),
        *zoo_);
  }

  opt::SimEvaluator::Options eval_options;
  eval_options.measure_window_s = options_.measure_window_s;
  eval_options.l_tail_ms = params_.l_tail_ms;
  sim_evaluator_ = std::make_unique<opt::SimEvaluator>(sim_, &mapper_,
                                                       eval_options);
  cache_ = std::make_unique<opt::CachingEvaluator>(sim_evaluator_.get(),
                                                   options_.eval_cache);

  // Screen-then-simulate: build the analytic fast tier matched to the
  // production workload and push the factor into the search options.
  CLOVER_CHECK(options_.screen_factor >= 1);
  if (options_.screen_factor > 1) {
    options_.sa.screen_factor = options_.screen_factor;
    options_.rs.screen_factor = options_.screen_factor;
    opt::SurrogateEvaluator::Options surrogate_options;
    surrogate_options.arrival_rate_qps = sim_->options().arrival_rate_qps;
    surrogate_options.l_tail_ms = params_.l_tail_ms;
    surrogate_options.service_model = sim_->options().service_model;
    surrogate_options.service_jitter_sigma =
        sim_->options().service_jitter_sigma;
    surrogate_ = std::make_unique<opt::SurrogateEvaluator>(
        zoo_, sim_->num_gpus(), surrogate_options);
  }

  if (options_.scheme == Scheme::kClover) {
    // Clover: SA in graph space through the cross-invocation cache.
    annealer_ = std::make_unique<opt::SimulatedAnnealing>(
        cache_.get(), &sampler_, options_.sa, options_.seed);
    if (surrogate_ != nullptr) annealer_->SetSurrogate(surrogate_.get());
  } else {
    // Blover: random search, no graph structure, no cache.
    random_search_ = std::make_unique<opt::RandomSearch>(
        sim_evaluator_.get(), &mapper_, options_.rs, options_.seed);
    if (surrogate_ != nullptr) random_search_->SetSurrogate(surrogate_.get());
  }
}

ControllerSnapshot Controller::Snapshot() const {
  ControllerSnapshot snapshot;
  snapshot.invocations = static_cast<int>(history_.size());
  if (!history_.empty()) {
    snapshot.last_invocation_end_s = history_.back().end_s;
    snapshot.last_ci = history_.back().ci;
    snapshot.last_best_f = history_.back().search.best_f;
  }
  snapshot.cache_size = cache_->store()->size();
  snapshot.cache_hits = cache_->hits();
  snapshot.total_optimization_seconds = total_opt_seconds_;
  snapshot.last_committed = last_compliant_;
  return snapshot;
}

std::optional<OptimizationRun> Controller::Step() {
  const double now = sim_->now();
  if (!monitor_.ShouldReoptimize(now)) return std::nullopt;

  CLOVER_TRACE_SCOPE("opt.invocation");
  OptimizationRun run;
  run.invocation = static_cast<int>(history_.size());
  run.start_s = now;
  run.ci = monitor_.IntensityAt(now);

  // Warm start: the center is the currently deployed configuration. The
  // first invocation additionally probes a few blind random configurations
  // (paper Sec. 5.2.2: invocation I "starts blindly" — most of what it
  // evaluates violates the SLA) so the annealer is not anchored to the
  // conservative BASE region.
  const graph::ConfigGraph center =
      graph::ConfigGraph::FromDeployment(sim_->deployment(), *zoo_);
  const double min_capacity =
      options_.capacity_margin * sim_->options().arrival_rate_qps;
  std::vector<graph::ConfigGraph> seeds{center};
  if (history_.empty() && options_.scheme == Scheme::kClover) {
    // Canonical probes any operator would try first: the carbon-optimal
    // corner (finest partition + smallest variant) and the finest partition
    // hosting the largest 1g-fitting variant. Both are SLA-safe anchors at
    // opposite ends of the accuracy axis.
    const models::Application app = sim_->deployment().app;
    seeds.push_back(graph::ConfigGraph::FromDeployment(
        serving::MakeCo2Opt(app, sim_->num_gpus(), *zoo_), *zoo_));
    {
      const models::ModelFamily& family = zoo_->ForApplication(app);
      int best_1g = 0;
      for (int v = 0; v < family.NumVariants(); ++v)
        if (perf::PerfModel::Fits(family.Variant(v), mig::SliceType::k1g))
          best_1g = v;
      if (best_1g > 0) {
        const int finest = mig::MigConfigTable::Get().NumLayouts();
        seeds.push_back(graph::ConfigGraph::FromDeployment(
            serving::MakeUniform(app, sim_->num_gpus(), finest, best_1g),
            *zoo_));
      }
    }
    for (int i = 0; i < options_.cold_start_probes; ++i) {
      // Blind, but not suicidal: probes must have the capacity to serve the
      // offered load, else the probe itself builds a backlog that poisons
      // every subsequent measurement.
      for (int attempt = 0; attempt < 64; ++attempt) {
        graph::ConfigGraph probe = graph::SampleRandomConfiguration(
            mapper_, probe_rng_, sim_->deployment().app);
        if (graph::NominalCapacityQps(probe, *zoo_) >= min_capacity) {
          seeds.push_back(std::move(probe));
          break;
        }
      }
    }
  }

  run.search = options_.scheme == Scheme::kClover
                   ? annealer_->Run(seeds, params_, run.ci)
                   : random_search_->Run(center, params_, run.ci);

  // Commit the winner only when it is SLA-compliant *and* capacity-safe;
  // otherwise fall back to the last compliant configuration so the service
  // recovers from any backlog the search created.
  graph::ConfigGraph to_deploy = run.search.best;
  const bool winner_safe =
      run.search.best_sla_ok &&
      graph::NominalCapacityQps(run.search.best, *zoo_) >= min_capacity;
  if (winner_safe) {
    last_compliant_ = run.search.best;
  } else {
    to_deploy = last_compliant_;
  }
  const serving::Deployment anchor = sim_->deployment();
  const auto deployment = mapper_.ToDeployment(to_deploy, &anchor);
  CLOVER_CHECK(deployment.has_value());
  const double ready = sim_->ApplyDeployment(*deployment);
  sim_->AdvanceTo(ready);

  run.end_s = sim_->now();
  total_opt_seconds_ += run.DurationSeconds();
  monitor_.AcknowledgeOptimization(sim_->now());

  CLOVER_TRACE_VSPAN("opt.invocation", run.start_s, run.end_s);
  CLOVER_OBS_COUNT("opt.invocations", 1);
  CLOVER_OBS_GAUGE("opt.best_f", run.search.best_f);
  // Control boundary: the invocation (and everything the sim did to reach
  // it) is complete, so the fold is deterministic here.
  CLOVER_OBS_SAMPLE(run.end_s);

  CLOVER_INFO("invocation " << run.invocation << " @ci=" << run.ci
                            << " evals=" << run.search.evaluations.size()
                            << " best_f=" << run.search.best_f
                            << " took=" << run.DurationSeconds() << "s");
  history_.push_back(run);
  return history_.back();
}

}  // namespace clover::core
