// Sec. 5.2.1 back-of-envelope: the physical significance of Clover's
// per-request carbon saving, scaled to 25 million inferences/day at the US
// average intensity of 380 gCO2/kWh with PUE 1.5, expressed in car-km and
// coal-kg equivalents (EPA conversion factors the paper cites).
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "common/units.h"

int main(int argc, char** argv) {
  using namespace clover;
  bench::Flags flags = bench::ParseFlags(argc, argv);
  bench::PrintBanner("Sec. 5.2.1 — physical significance of the savings",
                     flags);

  // Measure the per-request energy saving of CLOVER vs BASE on a short run
  // (classification, CISO March) and convert at the paper's reference
  // conditions.
  std::vector<exp::CellSpec> cells;
  for (core::Scheme scheme : {core::Scheme::kBase, core::Scheme::kClover}) {
    exp::CellSpec cell =
        bench::EvalCell(models::Application::kClassification, scheme, flags);
    cell.hours = std::min(flags.hours, 12.0);
    cells.push_back(cell);
  }
  const auto reports = bench::RunCells("estimate_daily_savings", cells, flags);
  const core::RunReport& base = reports[0];
  const core::RunReport& clover = reports[1];

  const double e_base_j =
      base.total_energy_j / static_cast<double>(base.completions);
  const double e_clover_j =
      clover.total_energy_j / static_cast<double>(clover.completions);
  const double us_ci = 380.0;  // gCO2/kWh, US average (paper Sec. 5.2.1)
  const double pue = 1.5;
  const double saved_g_per_req =
      CarbonGrams(e_base_j - e_clover_j, us_ci, pue);
  const double requests_per_day = 25e6;
  const double saved_kg_per_day = saved_g_per_req * requests_per_day / 1e3;

  // EPA equivalencies: ~404 gCO2 per car-mile -> 251 g/km; ~2.86 kgCO2 per
  // kg of coal burned.
  const double car_km = saved_kg_per_day * 1e3 / 251.0;
  const double coal_kg = saved_kg_per_day / 2.86;

  TextTable table({"quantity", "value"});
  table.AddRow({"BASE energy/request (J)", TextTable::Num(e_base_j, 2)});
  table.AddRow({"CLOVER energy/request (J)", TextTable::Num(e_clover_j, 2)});
  table.AddRow({"saved carbon per request (gCO2)",
                TextTable::Num(saved_g_per_req, 4)});
  table.AddRow({"saved per day @25M req (kg CO2)",
                TextTable::Num(saved_kg_per_day, 1)});
  table.AddRow({"equivalent gasoline-car distance (km/day)",
                TextTable::Num(car_km, 0)});
  table.AddRow({"equivalent coal not burned (kg/day)",
                TextTable::Num(coal_kg, 0)});
  table.Print(std::cout);
  std::cout << "\npaper: 6.77e-3 gCO2/request -> ~170 kg CO2/day ~ 680 "
               "car-km ~ 85 kg coal. Absolute numbers scale with the\n"
               "calibration constants (see EXPERIMENTS.md); the conversion "
               "chain is identical.\n";
  return 0;
}
