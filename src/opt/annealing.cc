#include "opt/annealing.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace clover::opt {
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

void ScreenPool(Evaluator* surrogate, const ObjectiveParams& params,
                double ci, std::size_t keep,
                std::vector<graph::ConfigGraph>* pool, int* screened) {
  if (pool->size() <= keep) return;
  const std::vector<std::size_t> survivors =
      ScreenCandidates(surrogate, *pool, params, ci, keep);
  *screened += static_cast<int>(pool->size() - survivors.size());
  CLOVER_OBS_COUNT("opt.screened", pool->size() - survivors.size());
  std::vector<graph::ConfigGraph> kept;
  kept.reserve(survivors.size());
  for (std::size_t index : survivors) kept.push_back(std::move((*pool)[index]));
  *pool = std::move(kept);
}

bool FoldEvaluation(const graph::ConfigGraph& graph,
                    const EvalOutcome& outcome, const ObjectiveParams& params,
                    double ci, SearchResult* result) {
  result->elapsed_seconds += outcome.cost_seconds;
  if (outcome.from_cache) ++result->cache_hits;
  EvalRecord record;
  record.graph = graph;
  record.metrics = outcome.metrics;
  record.f = ObjectiveF(outcome.metrics, params, ci);
  record.delta_carbon_pct = DeltaCarbonPct(outcome.metrics, params, ci);
  record.delta_accuracy_pct = DeltaAccuracyPct(outcome.metrics, params);
  record.sla_ok = outcome.sla_ok;
  record.from_cache = outcome.from_cache;
  record.order = static_cast<int>(result->evaluations.size());
  const bool first = result->evaluations.empty();
  result->evaluations.push_back(record);

  bool better = first || (outcome.sla_ok && !result->best_sla_ok);
  if (!better && outcome.sla_ok == result->best_sla_ok) {
    better = outcome.sla_ok
                 ? record.f > result->best_f
                 : std::max(0.0, outcome.metrics.p95_ms - params.l_tail_ms) <
                       std::max(0.0, result->best_metrics.p95_ms -
                                         params.l_tail_ms);
  }
  if (better) {
    result->best = graph;
    result->best_metrics = outcome.metrics;
    result->best_f = record.f;
    result->best_sla_ok = outcome.sla_ok;
  }
  return better;
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
  graph::ConfigGraph center = seeds.front();
  double center_h = 0.0;
  bool have_center = false;

  // Serial fold of one evaluated seed: accounting, best-tracking and
  // center selection. Returns false once the time budget is exhausted.
  auto fold_seed = [&](const graph::ConfigGraph& seed,
                       const EvalOutcome& outcome) {
    FoldEvaluation(seed, outcome, params, ci, &result);
    const double h = AnnealEnergyH(result.evaluations.back().f,
                                   outcome.metrics.p95_ms, params.l_tail_ms);
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
  auto evaluated = [&] { return static_cast<int>(result.evaluations.size()); };
  auto stopped = [&] {
    return result.elapsed_seconds >= options_.time_budget_s ||
           consecutive_no_improve >= options_.no_improve_limit ||
           evaluated() >= options_.max_evaluations;
  };

  // Serial fold of one evaluated proposal: record, best-tracking, the
  // acceptance chain against the evolving center, and one cooling step.
  auto fold_proposal = [&](const graph::ConfigGraph& candidate,
                           const EvalOutcome& outcome) {
    const bool improved =
        FoldEvaluation(candidate, outcome, params, ci, &result);
    consecutive_no_improve = improved ? 0 : consecutive_no_improve + 1;

    const double candidate_h =
        AnnealEnergyH(result.evaluations.back().f, outcome.metrics.p95_ms,
                      params.l_tail_ms);
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
    const int round =
        std::min(batch_size, options_.max_evaluations - evaluated());
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
    // only the top round-size slice pays for a simulation.
    if (screening)
      ScreenPool(surrogate_, params, ci, static_cast<std::size_t>(round),
                 &proposals, &result.screened);

    std::vector<EvalOutcome> outcomes;
    {
      CLOVER_TRACE_SCOPE("opt.simulate_batch");
      outcomes = batch->EvaluateBatch(proposals);
    }
    CLOVER_OBS_COUNT("opt.simulated", proposals.size());
    for (std::size_t i = 0; i < proposals.size() && !stopped(); ++i)
      fold_proposal(proposals[i], outcomes[i]);
  }

  CLOVER_CHECK(!result.evaluations.empty());
  CLOVER_OBS_COUNT("opt.evaluated", result.evaluations.size());
  return result;
}

}  // namespace clover::opt
