// Fig. 14: (a) the effect of the lambda weight (0.1 / 0.5 / 0.9) at a fixed
// 100 gCO2/kWh intensity — lower lambda trades carbon for accuracy;
// (b) accuracy-threshold mode: the maximum allowed accuracy loss is
// enforced as a constraint and Clover maximizes carbon savings within it.
// Image classification, as in the paper.
#include <iostream>

#include "bench_util.h"
#include "carbon/trace.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using namespace clover;
  bench::Flags flags = bench::ParseFlags(argc, argv);
  bench::PrintBanner("Fig. 14 — lambda sweep and accuracy-loss limits",
                     flags);

  // (a) constant 100 gCO2/kWh trace; a shorter span suffices since the
  // intensity never changes after convergence. Not a campaign trace, so
  // the pairs run serially on one harness.
  const double lambda_hours = std::min(flags.hours, 12.0);
  const carbon::CarbonTrace flat100(
      "flat-100", 300.0,
      std::vector<double>(static_cast<std::size_t>(lambda_hours * 12 + 12),
                          100.0));

  core::ExperimentHarness harness(&models::DefaultZoo());
  TextTable lambda_table({"lambda", "carbon save (%)", "accuracy gain (%)"});
  for (double lambda : {0.1, 0.5, 0.9}) {
    core::ExperimentConfig config;
    config.app = models::Application::kClassification;
    config.scheme = core::Scheme::kBase;
    config.trace = &flat100;
    config.duration_hours = lambda_hours;
    config.num_gpus = flags.gpus;
    config.sizing_gpus = flags.gpus;
    config.lambda = lambda;
    config.seed = flags.seed;
    const core::RunReport base = harness.Run(config);
    config.scheme = core::Scheme::kClover;
    const core::RunReport clover = harness.Run(config);
    lambda_table.AddRow(
        {TextTable::Num(lambda, 1),
         TextTable::Num(clover.CarbonSavePctVs(base), 1),
         TextTable::Num(clover.AccuracyGainPctVs(base), 2)});
  }
  std::cout << "(a) adjusting lambda @100 gCO2/kWh:\n";
  lambda_table.Print(std::cout);

  // (b) accuracy-loss thresholds over the CISO March trace.
  const models::Application app = models::Application::kClassification;
  std::vector<exp::CellSpec> cells = {
      bench::EvalCell(app, core::Scheme::kBase, flags)};
  for (double limit : {0.2, 0.4, 0.8, 1.6, 3.2}) {
    cells.push_back(bench::EvalCell(app, core::Scheme::kClover, flags));
    cells.back().accuracy_limit_pct = limit;
  }
  const auto limit_reports = bench::RunCells("fig14", cells, flags);

  std::cout << "\n(b) enforcing an accuracy-loss limit (CISO March):\n";
  TextTable limit_table({"allowed accuracy loss (%)", "carbon save (%)",
                         "actual accuracy loss (%)"});
  for (std::size_t i = 1; i < limit_reports.size(); ++i) {
    limit_table.AddRow(
        {TextTable::Num(*cells[i].accuracy_limit_pct, 1),
         TextTable::Num(limit_reports[i].CarbonSavePctVs(limit_reports[0]),
                        1),
         TextTable::Num(
             limit_reports[i].AccuracyLossPctVs(limit_reports[0]), 2)});
  }
  limit_table.Print(std::cout);
  std::cout << "\npaper: lambda 0.1 -> highest accuracy, 0.9 -> highest "
               "savings; with a 0.2-0.8% loss budget Clover still saves "
               "60-75% carbon.\n";
  return 0;
}
