#include "opt/annealing.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace clover::opt {
namespace {

EvalRecord MakeRecord(const graph::ConfigGraph& graph,
                      const EvalOutcome& outcome,
                      const ObjectiveParams& params, double ci, int order) {
  EvalRecord record;
  record.graph = graph;
  record.metrics = outcome.metrics;
  record.f = ObjectiveF(outcome.metrics, params, ci);
  record.delta_carbon_pct = DeltaCarbonPct(outcome.metrics, params, ci);
  record.delta_accuracy_pct = DeltaAccuracyPct(outcome.metrics, params);
  record.sla_ok = outcome.sla_ok;
  record.from_cache = outcome.from_cache;
  record.order = order;
  return record;
}

// Tracks the incumbent best under the SLA-first rule.
struct BestTracker {
  bool has_any = false;
  bool best_sla_ok = false;
  double best_f = 0.0;
  double best_violation_ms = 0.0;
  graph::ConfigGraph best;
  EvalMetrics best_metrics;

  BestTracker() : best(models::Application::kClassification, 1) {}

  // Returns true when this evaluation became the new best.
  bool Offer(const graph::ConfigGraph& graph, const EvalMetrics& metrics,
             double f, bool sla_ok, double l_tail_ms) {
    const double violation_ms = std::max(0.0, metrics.p95_ms - l_tail_ms);
    bool better = false;
    if (!has_any) {
      better = true;
    } else if (sla_ok && !best_sla_ok) {
      better = true;
    } else if (sla_ok == best_sla_ok) {
      better = sla_ok ? (f > best_f) : (violation_ms < best_violation_ms);
    }
    if (better) {
      has_any = true;
      best_sla_ok = sla_ok;
      best_f = f;
      best_violation_ms = violation_ms;
      best = graph;
      best_metrics = metrics;
    }
    return better;
  }
};

}  // namespace

std::vector<std::size_t> ScreenCandidates(
    Evaluator* surrogate, const std::vector<graph::ConfigGraph>& pool,
    const ObjectiveParams& params, double ci, std::size_t keep) {
  CLOVER_CHECK(surrogate != nullptr);
  CLOVER_TRACE_SCOPE("opt.screen");
  CLOVER_OBS_COUNT("opt.screen.pool", pool.size());
  if (pool.size() <= keep) {
    std::vector<std::size_t> all(pool.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    return all;
  }

  struct Ranked {
    std::size_t index;
    bool sla_ok;
    double f;
    double violation_ms;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const EvalOutcome outcome = surrogate->Evaluate(pool[i]);
    Ranked entry;
    entry.index = i;
    entry.sla_ok = outcome.sla_ok;
    entry.f = ObjectiveF(outcome.metrics, params, ci);
    entry.violation_ms =
        std::max(0.0, outcome.metrics.p95_ms - params.l_tail_ms);
    ranked.push_back(entry);
  }
  // SLA-first, then objective (or least violation), then sampling index —
  // the same preference order the searches' best-tracking applies, so the
  // screen optimizes for exactly what the fold will reward.
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a,
                                             const Ranked& b) {
    if (a.sla_ok != b.sla_ok) return a.sla_ok;
    if (a.sla_ok) {
      if (a.f != b.f) return a.f > b.f;
    } else {
      if (a.violation_ms != b.violation_ms)
        return a.violation_ms < b.violation_ms;
    }
    return a.index < b.index;
  });

  std::vector<std::size_t> survivors;
  survivors.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i)
    survivors.push_back(ranked[i].index);
  std::sort(survivors.begin(), survivors.end());
  return survivors;
}

bool SearchResultsBitIdentical(const SearchResult& a, const SearchResult& b) {
  if (a.evaluations.size() != b.evaluations.size()) return false;
  if (a.best_f != b.best_f || a.best_sla_ok != b.best_sla_ok) return false;
  if (a.screened != b.screened) return false;
  if (!(a.best == b.best)) return false;
  if (a.best_metrics.accuracy != b.best_metrics.accuracy ||
      a.best_metrics.energy_per_request_j !=
          b.best_metrics.energy_per_request_j ||
      a.best_metrics.p95_ms != b.best_metrics.p95_ms)
    return false;
  if (a.elapsed_seconds != b.elapsed_seconds) return false;
  if (a.cache_hits != b.cache_hits) return false;
  for (std::size_t i = 0; i < a.evaluations.size(); ++i) {
    const EvalRecord& ra = a.evaluations[i];
    const EvalRecord& rb = b.evaluations[i];
    if (ra.order != rb.order || ra.f != rb.f || ra.sla_ok != rb.sla_ok ||
        ra.from_cache != rb.from_cache)
      return false;
    if (ra.delta_carbon_pct != rb.delta_carbon_pct ||
        ra.delta_accuracy_pct != rb.delta_accuracy_pct)
      return false;
    if (ra.metrics.accuracy != rb.metrics.accuracy ||
        ra.metrics.energy_per_request_j != rb.metrics.energy_per_request_j ||
        ra.metrics.p95_ms != rb.metrics.p95_ms)
      return false;
    if (!(ra.graph == rb.graph)) return false;
  }
  return true;
}

SimulatedAnnealing::SimulatedAnnealing(Evaluator* evaluator,
                                       graph::NeighborSampler* sampler,
                                       const Options& options,
                                       std::uint64_t seed)
    : evaluator_(evaluator),
      sampler_(sampler),
      options_(options),
      accept_rng_(seed, "sa-acceptance") {
  CLOVER_CHECK(evaluator_ != nullptr && sampler_ != nullptr);
  CLOVER_CHECK(options_.batch_size >= 1);
  CLOVER_CHECK(options_.screen_factor >= 1);
}

void SimulatedAnnealing::SetBatchEvaluator(BatchEvaluator* batch) {
  CLOVER_CHECK(batch != nullptr);
  batch_ = batch;
}

void SimulatedAnnealing::SetSurrogate(Evaluator* surrogate) {
  CLOVER_CHECK(surrogate != nullptr);
  surrogate_ = surrogate;
}

SearchResult SimulatedAnnealing::Run(const graph::ConfigGraph& start,
                                     const ObjectiveParams& params,
                                     double ci) {
  return Run(std::vector<graph::ConfigGraph>{start}, params, ci);
}

SearchResult SimulatedAnnealing::Run(
    const std::vector<graph::ConfigGraph>& seeds,
    const ObjectiveParams& params, double ci) {
  CLOVER_CHECK(!seeds.empty());
  SearchResult result;
  BestTracker tracker;

  int order = 0;
  graph::ConfigGraph center = seeds.front();
  double center_h = 0.0;
  bool have_center = false;

  // Serial fold of one evaluated seed: accounting, best-tracking and
  // center selection. Returns false once the time budget is exhausted.
  auto fold_seed = [&](const graph::ConfigGraph& seed,
                       const EvalOutcome& outcome) {
    result.elapsed_seconds += outcome.cost_seconds;
    if (outcome.from_cache) ++result.cache_hits;
    EvalRecord record = MakeRecord(seed, outcome, params, ci, order++);
    result.evaluations.push_back(record);
    tracker.Offer(seed, outcome.metrics, record.f, outcome.sla_ok,
                  params.l_tail_ms);
    const double h =
        AnnealEnergyH(record.f, outcome.metrics.p95_ms, params.l_tail_ms);
    if (!have_center || h < center_h) {
      center = seed;
      center_h = h;
      have_center = true;
    }
    return result.elapsed_seconds < options_.time_budget_s;
  };

  // Evaluate every seed (the incumbent deployment first — measuring it is
  // cheap since no reconfiguration is needed — then any blind probes); the
  // lowest-energy seed becomes the annealing center. With a batch executor
  // the seeds are one parallel batch folded in order; serially each seed is
  // evaluated only if the budget survived the previous one (the shared
  // online evaluator must not be touched past the budget).
  if (batch_ != nullptr) {
    const std::vector<EvalOutcome> outcomes = batch_->EvaluateBatch(seeds);
    for (std::size_t i = 0; i < seeds.size(); ++i)
      if (!fold_seed(seeds[i], outcomes[i])) break;
  } else {
    for (const graph::ConfigGraph& seed : seeds)
      if (!fold_seed(seed, evaluator_->Evaluate(seed))) break;
  }

  double temperature = options_.t0;
  int consecutive_no_improve = 0;
  auto stopped = [&] {
    return result.elapsed_seconds >= options_.time_budget_s ||
           consecutive_no_improve >= options_.no_improve_limit ||
           order >= options_.max_evaluations;
  };

  // Serial fold of one evaluated proposal: record, best-tracking, the
  // acceptance chain against the evolving center, and one cooling step.
  auto fold_proposal = [&](const graph::ConfigGraph& candidate,
                           const EvalOutcome& outcome) {
    result.elapsed_seconds += outcome.cost_seconds;
    if (outcome.from_cache) ++result.cache_hits;
    EvalRecord record = MakeRecord(candidate, outcome, params, ci, order++);
    result.evaluations.push_back(record);

    const bool improved =
        tracker.Offer(candidate, outcome.metrics, record.f, outcome.sla_ok,
                      params.l_tail_ms);
    consecutive_no_improve = improved ? 0 : consecutive_no_improve + 1;

    const double candidate_h =
        AnnealEnergyH(record.f, outcome.metrics.p95_ms, params.l_tail_ms);
    bool accept = candidate_h <= center_h;
    if (!accept) {
      const double probability =
          std::exp(-(candidate_h - center_h) / temperature);
      accept = accept_rng_.NextDouble() < probability;
    }
    if (accept) {
      center = candidate;
      center_h = candidate_h;
    }
    temperature = std::max(options_.t_min,
                           temperature - options_.cooling_step);
  };

  SerialBatchEvaluator serial(evaluator_);
  BatchEvaluator* batch = batch_ != nullptr ? batch_ : &serial;
  const int batch_size = batch_ != nullptr ? options_.batch_size : 1;

  std::vector<graph::ConfigGraph> proposals;
  proposals.reserve(static_cast<std::size_t>(batch_size));
  while (!stopped()) {
    // One speculative round: up to batch_size proposals drawn sequentially
    // from the round's starting center. A mid-round Sample failure only
    // shortens this round — the fold may accept a new center whose
    // neighborhood is samplable again, so the next round retries from it;
    // the search ends only when a round opens with zero proposals (the
    // current center's neighborhood is exhausted, matching the legacy
    // serial termination).
    const int round = std::min(batch_size, options_.max_evaluations - order);
    const bool screening = surrogate_ != nullptr && options_.screen_factor > 1;
    const int pool_size = screening ? round * options_.screen_factor : round;
    proposals.clear();
    for (int i = 0; i < pool_size; ++i) {
      auto candidate = sampler_->Sample(center);
      if (!candidate.has_value()) break;
      proposals.push_back(std::move(*candidate));
    }
    if (proposals.empty()) break;  // neighborhood exhausted

    // Screen-then-simulate: the surrogate ranks the oversampled pool and
    // only the top round-size slice pays for a simulation. Survivors stay
    // in sampling order, so the fold below is unchanged.
    if (screening && proposals.size() > static_cast<std::size_t>(round)) {
      const std::vector<std::size_t> survivors =
          ScreenCandidates(surrogate_, proposals, params, ci,
                           static_cast<std::size_t>(round));
      result.screened +=
          static_cast<int>(proposals.size() - survivors.size());
      CLOVER_OBS_COUNT("opt.screened", proposals.size() - survivors.size());
      std::vector<graph::ConfigGraph> kept;
      kept.reserve(survivors.size());
      for (std::size_t index : survivors)
        kept.push_back(std::move(proposals[index]));
      proposals = std::move(kept);
    }

    std::vector<EvalOutcome> outcomes;
    {
      CLOVER_TRACE_SCOPE("opt.simulate_batch");
      outcomes = batch->EvaluateBatch(proposals);
    }
    CLOVER_OBS_COUNT("opt.simulated", proposals.size());
    for (std::size_t i = 0; i < proposals.size() && !stopped(); ++i)
      fold_proposal(proposals[i], outcomes[i]);
  }

  CLOVER_CHECK(tracker.has_any);
  CLOVER_OBS_COUNT("opt.evaluated", result.evaluations.size());
  result.best = tracker.best;
  result.best_metrics = tracker.best_metrics;
  result.best_f = tracker.best_f;
  result.best_sla_ok = tracker.best_sla_ok;
  return result;
}

}  // namespace clover::opt
