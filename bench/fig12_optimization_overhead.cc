// Fig. 12: (a) optimization time as % of the trace span, total and by
// 8-hour interval, for BLOVER vs CLOVER; (b) the disposition of evaluated
// configurations (meets SLA / violates SLA / saved by the evaluation
// cache). Image-classification application, as in the paper.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using namespace clover;
  bench::Flags flags = bench::ParseFlags(argc, argv);
  bench::PrintBanner("Fig. 12 — optimization overhead and SLA compliance",
                     flags);

  std::vector<exp::CellSpec> cells;
  for (core::Scheme scheme : {core::Scheme::kBlover, core::Scheme::kClover})
    cells.push_back(bench::EvalCell(models::Application::kClassification,
                                    scheme, flags));
  const auto reports = bench::RunCells("fig12", cells, flags);

  // (a) optimization time by 8-hour interval.
  const int buckets = std::max(1, static_cast<int>(flags.hours / 8.0));
  TextTable interval_table({"scheme", "total opt time (%)", "per-interval %",
                            "invocations"});
  for (const core::RunReport& report : reports) {
    std::vector<double> bucket_s(static_cast<std::size_t>(buckets), 0.0);
    for (const core::OptimizationRun& run : report.optimizations) {
      const auto b = std::min<std::size_t>(
          static_cast<std::size_t>(run.start_s / (8.0 * 3600.0)),
          bucket_s.size() - 1);
      bucket_s[b] += run.DurationSeconds();
    }
    std::string per_interval;
    for (double s : bucket_s) {
      if (!per_interval.empty()) per_interval += " ";
      per_interval += TextTable::Num(s / (8.0 * 3600.0) * 100.0, 1);
    }
    interval_table.AddRow(
        {std::string(core::SchemeName(report.scheme)),
         TextTable::Num(report.optimization_seconds /
                            (flags.hours * 3600.0) * 100.0,
                        2),
         per_interval, std::to_string(report.optimizations.size())});
  }
  interval_table.Print(std::cout);

  // (b) evaluated-configuration disposition.
  std::cout << '\n';
  TextTable pie_table({"scheme", "evaluations", "meets SLA (%)",
                       "violates SLA (%)", "saved by cache (%)"});
  for (const core::RunReport& report : reports) {
    std::uint64_t total = 0, meets = 0, violates = 0, saved = 0;
    for (const core::OptimizationRun& run : report.optimizations) {
      for (const opt::EvalRecord& record : run.search.evaluations) {
        ++total;
        if (record.from_cache) {
          ++saved;
        } else if (record.sla_ok) {
          ++meets;
        } else {
          ++violates;
        }
      }
    }
    auto pct = [&](std::uint64_t x) {
      return total ? TextTable::Num(100.0 * x / total, 1) : std::string("-");
    };
    pie_table.AddRow({std::string(core::SchemeName(report.scheme)),
                      std::to_string(total), pct(meets), pct(violates),
                      pct(saved)});
  }
  pie_table.Print(std::cout);
  std::cout << "\npaper: BLOVER spends ~2.3% of the span optimizing vs "
               "CLOVER ~1.2%, both starting >2.5% in the first 8 h;\n"
               "BLOVER evaluates {22.2% meets, 77.8% violates}; CLOVER "
               "{46.8% meets, 35.5% violates, 17.7% saved}.\n";
  return 0;
}
