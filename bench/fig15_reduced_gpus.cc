// Fig. 15: reduced GPU provisioning — p95 tail latency (normalized to the
// 10-GPU BASE reference) when the cluster shrinks to 1/2.5x (4 GPUs) and
// 1/5x (2 GPUs) of the paper's testbed, for BASE vs CLOVER. The arrival
// rate stays sized for the full 10-GPU BASE deployment, so BASE overloads
// while Clover's partitioning + mixed-quality serving keeps the SLA.
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using namespace clover;
  bench::Flags flags = bench::ParseFlags(argc, argv);
  // Overloaded BASE queues grow without bound; keep these runs short.
  const double hours = std::min(flags.hours, 2.0);
  bench::PrintBanner("Fig. 15 — reduced GPU provisioning (p95 norm to "
                     "10-GPU BASE)",
                     flags);

  const std::vector<std::pair<const char*, int>> provisionings = {
      {"1/1x (10 GPUs)", 10}, {"1/2.5x (4 GPUs)", 4}, {"1/5x (2 GPUs)", 2}};
  const std::vector<models::Application> apps = {
      models::Application::kDetection, models::Application::kLanguage,
      models::Application::kClassification};

  std::vector<exp::CellSpec> cells;
  for (models::Application app : apps) {
    for (const auto& provisioning : provisionings) {
      for (core::Scheme scheme :
           {core::Scheme::kBase, core::Scheme::kClover}) {
        exp::CellSpec cell = bench::EvalCell(app, scheme, flags);
        cell.hours = hours;
        cell.gpus = provisioning.second;
        cell.sizing_gpus = 10;  // rate stays sized for the full testbed
        cells.push_back(cell);
      }
    }
  }
  const auto all_reports = bench::RunCells("fig15", cells, flags);

  const std::size_t per_app = 2 * provisionings.size();
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const models::Application app = apps[a];
    const core::RunReport* reports = &all_reports[a * per_app];
    // Steady-state p95: the median of per-window p95 over the second half
    // of the run. Clover has to discover the right configuration for the
    // shrunken fleet first (its initial BASE deployment is overloaded); the
    // paper's bars likewise report the operating regime, not the cold-start
    // transient. For an overloaded BASE the backlog keeps growing, so this
    // statistic still diverges.
    auto steady_p95 = [](const core::RunReport& report) {
      std::vector<double> tail;
      for (std::size_t w = report.windows.size() / 2;
           w < report.windows.size(); ++w)
        tail.push_back(report.windows[w].p95_ms);
      std::sort(tail.begin(), tail.end());
      return tail.empty() ? 0.0 : tail[tail.size() / 2];
    };
    const double reference = steady_p95(reports[0]);  // 10-GPU BASE

    std::cout << models::ApplicationName(app) << ":\n";
    TextTable table({"provisioning", "BASE p95 (norm)", "CLOVER p95 (norm)"});
    auto norm = [&](const core::RunReport& report) {
      const double n = steady_p95(report) / reference;
      return n > 3.0 ? std::string("> 3") : TextTable::Num(n, 2);
    };
    for (std::size_t p = 0; p < provisionings.size(); ++p)
      table.AddRow({provisionings[p].first, norm(reports[2 * p]),
                    norm(reports[2 * p + 1])});
    table.Print(std::cout);
    std::cout << '\n';
  }
  std::cout << "paper: BASE needs all 10 GPUs (norm > 1, exploding at 4/2); "
               "CLOVER meets the SLA target even with 2 GPUs — implicitly "
               "saving embodied carbon.\n";
  return 0;
}
