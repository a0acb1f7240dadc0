// Fig. 10: carbon savings vs accuracy gain (both relative to BASE) for
// CO2OPT, BLOVER, CLOVER and ORACLE, per application, over the 48 h CISO
// March trace.
#include <iostream>

#include "bench_util.h"
#include "common/csv.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using namespace clover;
  bench::Flags flags = bench::ParseFlags(argc, argv);
  bench::PrintBanner("Fig. 10 — scheme comparison (CISO March)", flags);

  const std::vector<core::Scheme> schemes = {
      core::Scheme::kBase, core::Scheme::kCo2Opt, core::Scheme::kBlover,
      core::Scheme::kClover, core::Scheme::kOracle};

  std::vector<exp::CellSpec> cells;
  for (models::Application app :
       {models::Application::kDetection, models::Application::kLanguage,
        models::Application::kClassification})
    for (core::Scheme scheme : schemes)
      cells.push_back(bench::EvalCell(app, scheme, flags));
  const auto reports = bench::RunCells("fig10", cells, flags);

  CsvWriter csv(bench::OutPath(flags, "fig10_schemes.csv"),
                {"application", "scheme", "carbon_save_pct",
                 "accuracy_gain_pct"});
  const std::size_t per_app = schemes.size();
  for (std::size_t a = 0; a < 3; ++a) {
    const core::RunReport& base = reports[a * per_app];
    std::cout << models::ApplicationName(base.app) << ":\n";
    TextTable table({"scheme", "carbon save (%)", "accuracy gain (%)",
                     "p95 norm", "opt time (%)"});
    for (std::size_t s = 1; s < per_app; ++s) {
      const core::RunReport& report = reports[a * per_app + s];
      const double save = report.CarbonSavePctVs(base);
      const double gain = report.AccuracyGainPctVs(base);
      table.AddRow({std::string(core::SchemeName(report.scheme)),
                    TextTable::Num(save, 1), TextTable::Num(gain, 2),
                    TextTable::Num(report.P95NormVs(base), 2),
                    TextTable::Num(report.optimization_seconds /
                                       (flags.hours * 3600.0) * 100.0,
                                   2)});
      csv.WriteRow(std::vector<std::string>{
          std::string(models::ApplicationName(base.app)),
          std::string(core::SchemeName(report.scheme)), std::to_string(save),
          std::to_string(gain)});
    }
    table.Print(std::cout);
    std::cout << '\n';
  }
  std::cout << "paper: CO2OPT saves the most carbon at the lowest accuracy; "
               "CLOVER is within ~5% of CO2OPT's savings at much higher\n"
               "accuracy, beats BLOVER on both axes, and lands closest to "
               "ORACLE.\ncsv: "
            << csv.path() << "\n";
  return 0;
}
