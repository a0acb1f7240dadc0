// Fig. 16: Clover across geographies and seasons — carbon savings and
// accuracy loss vs BASE per application, on the named region presets
// (carbon/trace_generator.h) whose first three entries are the paper's
// US CISO March, US CISO September and UK ESO March grids placed at their
// longitudes. The fleet bench (bench_runner fleet_routing) and the fleet
// tests draw regions from the same preset table, so single-cluster and
// fleet results are computed over identical inputs.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using namespace clover;
  bench::Flags flags = bench::ParseFlags(argc, argv);
  bench::PrintBanner("Fig. 16 — geographic/seasonal robustness", flags);

  const std::vector<std::string> region_names = {"us-west", "us-east",
                                                 "eu-west"};
  const std::vector<models::Application> apps = {
      models::Application::kDetection, models::Application::kLanguage,
      models::Application::kClassification};

  std::vector<exp::CellSpec> cells;
  for (const std::string& region : region_names) {
    for (models::Application app : apps) {
      for (core::Scheme scheme :
           {core::Scheme::kBase, core::Scheme::kClover}) {
        cells.push_back(bench::EvalCell(app, scheme, flags));
        cells.back().trace = region;
      }
    }
  }
  const auto reports = bench::RunCells("fig16", cells, flags);

  TextTable table({"region", "application", "carbon save (%)",
                   "accuracy loss (%)"});
  std::size_t index = 0;
  for (const std::string& region : region_names) {
    for (models::Application app : apps) {
      const core::RunReport& base = reports[index++];
      const core::RunReport& clover = reports[index++];
      table.AddRow({region,
                    std::string(models::ApplicationName(app)),
                    TextTable::Num(clover.CarbonSavePctVs(base), 1),
                    TextTable::Num(clover.AccuracyLossPctVs(base), 2)});
    }
  }
  table.Print(std::cout);
  std::cout << "\npaper: >60% carbon savings with limited accuracy loss "
               "across all regions and seasons.\n";
  return 0;
}
