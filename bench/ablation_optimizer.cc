// Ablation study of Clover's optimizer design choices (DESIGN.md Sec. 7):
//   (a) the evaluation cache ("saved" evaluations, Fig. 12b);
//   (b) the composite split/merge neighbor moves;
//   (c) the GED-4 neighborhood radius vs a tighter GED-2 one.
// Each variant runs simulated annealing against the closed-form surrogate
// (zero evaluation cost, so the comparison isolates *search* quality) from
// the BASE configuration at high carbon intensity; reported is the best
// objective reached within a fixed evaluation budget, averaged over seeds.
#include <iostream>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"
#include "opt/annealing.h"
#include "opt/evaluator.h"
#include "opt/surrogate.h"
#include "sim/arrivals.h"

namespace {

using namespace clover;

struct VariantSpec {
  const char* name;
  bool cache;
  bool split_merge;
  int max_ged;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags = bench::ParseFlags(argc, argv);
  bench::PrintBanner("Ablation — optimizer design choices", flags);

  const auto app = models::Application::kClassification;
  const auto& zoo = models::DefaultZoo();
  const double rate = sim::SizeArrivalRate(zoo, app, flags.gpus, 0.75);

  // Objective context from the surrogate's BASE point.
  opt::SurrogateEvaluator::Options surrogate_options;
  surrogate_options.arrival_rate_qps = rate;
  opt::SurrogateEvaluator base_eval(&zoo, flags.gpus, surrogate_options);
  graph::ConfigGraph base(app, zoo.ForApplication(app).NumVariants());
  base.SetWeight(zoo.ForApplication(app).NumVariants() - 1,
                 mig::SliceType::k7g, flags.gpus);
  const opt::EvalOutcome base_outcome = base_eval.Evaluate(base);
  opt::ObjectiveParams params;
  params.lambda = 0.5;
  params.a_base = base_outcome.metrics.accuracy;
  params.c_base_g = CarbonGrams(base_outcome.metrics.energy_per_request_j,
                                250.0, 1.5);
  params.l_tail_ms = base_outcome.metrics.p95_ms * 1.2;
  params.pue = 1.5;
  surrogate_options.l_tail_ms = params.l_tail_ms;
  const double ci = 300.0;

  const VariantSpec variants[] = {
      {"full (cache + split/merge, GED 4)", true, true, 4},
      {"no evaluation cache", false, true, 4},
      {"no split/merge moves", true, false, 4},
      {"GED 2 neighborhood", true, true, 2},
  };

  // Mirror the live system: invocations are short (terminate after 5
  // consecutive non-improvements or ~12 evaluations — the 5-minute budget
  // at ~25 s/evaluation) and warm-start from the previous winner. We chain
  // invocations and report how the best objective evolves.
  constexpr int kInvocations = 12;
  TextTable table({"variant", "best f @3 invocations", "@6", "@12",
                   "total evals", "cache hits"});
  for (const VariantSpec& spec : variants) {
    RunningStats f_at3, f_at6, f_at12, evals, hits;
    for (std::uint64_t seed : {11ull, 12ull, 13ull, 14ull, 15ull}) {
      opt::SurrogateEvaluator evaluator(&zoo, flags.gpus, surrogate_options);
      opt::CachingEvaluator cache(&evaluator);
      graph::GraphMapper mapper(&zoo, flags.gpus);
      graph::NeighborSampler::Options nopts;
      nopts.enable_split_merge = spec.split_merge;
      nopts.max_ged = spec.max_ged;
      if (spec.max_ged <= 2) nopts.second_move_probability = 0.0;
      graph::NeighborSampler sampler(&mapper, seed, nopts);
      opt::SimulatedAnnealing::Options sopts;
      sopts.time_budget_s = 1e12;
      sopts.no_improve_limit = 5;
      sopts.max_evaluations = 12;
      opt::SimulatedAnnealing annealer(
          spec.cache ? static_cast<opt::Evaluator*>(&cache) : &evaluator,
          &sampler, sopts, seed);

      graph::ConfigGraph center = base;
      double total_evals = 0.0, total_hits = 0.0, best = 0.0;
      for (int invocation = 0; invocation < kInvocations; ++invocation) {
        const opt::SearchResult result = annealer.Run(center, params, ci);
        center = result.best;  // warm start
        best = result.best_f;
        total_evals += static_cast<double>(result.evaluations.size());
        total_hits += static_cast<double>(result.cache_hits);
        if (invocation == 2) f_at3.Add(best);
        if (invocation == 5) f_at6.Add(best);
      }
      f_at12.Add(best);
      evals.Add(total_evals);
      hits.Add(total_hits);
    }
    table.AddRow({spec.name, TextTable::Num(f_at3.mean(), 2),
                  TextTable::Num(f_at6.mean(), 2),
                  TextTable::Num(f_at12.mean(), 2),
                  TextTable::Num(evals.mean(), 1),
                  TextTable::Num(hits.mean(), 1)});
  }
  table.Print(std::cout);
  std::cout << "\nreading: in this noise-free closed-form setting every "
               "variant converges to a similar optimum, and small moves are\n"
               "competitive — the advantage of the composite moves and the "
               "GED-4 radius shows up in the *live* system, where each\n"
               "evaluation costs ~25 simulated seconds and p95 measurements "
               "are noisy near the SLA boundary (compare Fig. 13's\n"
               "trajectories). The cache's hits are free evaluations, which "
               "in the live system directly reduce optimization time\n"
               "(Fig. 12's CLOVER-vs-BLOVER gap).\n";
  return 0;
}
