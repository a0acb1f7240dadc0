// Fig. 9: Clover vs BASE over the 48 h US CISO March trace, per application
// and overall — accuracy loss, carbon reduction, and SLA (p95) latency
// normalized to BASE.
//
// Timing goes through exp/bench_json.h (the bench_runner emission layer):
// the human footer and the BENCH_fig09.json dropped into --out are computed
// from the same WallTimer/FromReports numbers, so smoke-test output and
// machine-readable baselines always agree.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "exp/bench_json.h"

int main(int argc, char** argv) {
  using namespace clover;
  bench::Flags flags = bench::ParseFlags(argc, argv);
  bench::PrintBanner("Fig. 9 — Clover effectiveness vs BASE (CISO March)",
                     flags);

  bench::WallTimer timer;

  std::vector<exp::CellSpec> cells;
  for (models::Application app :
       {models::Application::kDetection, models::Application::kLanguage,
        models::Application::kClassification})
    for (core::Scheme scheme : {core::Scheme::kBase, core::Scheme::kClover})
      cells.push_back(bench::EvalCell(app, scheme, flags));
  const auto reports = bench::RunCells("fig09", cells, flags);

  TextTable table({"application", "accuracy loss (rel %)",
                   "accuracy loss (abs points)",
                   "carbon reduction vs BASE (%)", "p95 (norm to BASE)",
                   "requests served"});
  double loss_sum = 0.0, abs_sum = 0.0, save_sum = 0.0, sla_sum = 0.0;
  for (std::size_t i = 0; i < reports.size(); i += 2) {
    const core::RunReport& base = reports[i];
    const core::RunReport& clover = reports[i + 1];
    const double loss = clover.AccuracyLossPctVs(base);
    const double abs_loss = base.weighted_accuracy - clover.weighted_accuracy;
    const double save = clover.CarbonSavePctVs(base);
    const double sla = clover.P95NormVs(base);
    loss_sum += loss;
    abs_sum += abs_loss;
    save_sum += save;
    sla_sum += sla;
    table.AddRow({std::string(models::ApplicationName(base.app)),
                  TextTable::Num(loss, 2), TextTable::Num(abs_loss, 2),
                  TextTable::Num(save, 1), TextTable::Num(sla, 2),
                  std::to_string(clover.completions)});
  }
  table.AddRow({"Overall", TextTable::Num(loss_sum / 3.0, 2),
                TextTable::Num(abs_sum / 3.0, 2),
                TextTable::Num(save_sum / 3.0, 1),
                TextTable::Num(sla_sum / 3.0, 2), "-"});
  table.Print(std::cout);

  // Shared timing: one scenario row over all six runs, emitted both as the
  // perf footer and as machine-readable JSON next to the CSV dumps.
  exp::SuiteTiming suite;
  suite.suite = "fig09";
  suite.threads = 2;  // bench::RunCells' campaign threads
  suite.seed = flags.seed;
  suite.scenarios.push_back(
      exp::FromReports("fig09_clover_vs_base", timer.Seconds(), reports));
  exp::WriteBenchJson(suite, bench::OutPath(flags, "BENCH_fig09.json"));
  std::cout << "\n";
  exp::PrintSuiteTable(suite);

  std::cout << "\npaper: >75% carbon reduction per application with 2-4% "
               "accuracy loss (80% / 3% overall); p95 <= BASE.\n"
               "(The paper's accuracy axis is consistent with absolute "
               "metric points — CO2OPT detection sits at -6, exactly the\n"
               "55.0-49.0 mAP gap. Both conventions are printed; see "
               "EXPERIMENTS.md.)\n";
  return 0;
}
