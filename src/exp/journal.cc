#include "exp/journal.h"

#include <filesystem>
#include <iostream>
#include <map>

#include "common/check.h"
#include "common/fs.h"
#include "common/json.h"
#include "common/log.h"
#include "common/table.h"

namespace clover::exp {

std::string JournalPath(const std::string& out_dir, const CellSpec& cell) {
  return out_dir + "/runs/" + cell.Name() + ".json";
}

std::string ClaimPath(const std::string& out_dir, const CellSpec& cell) {
  return out_dir + "/runs/.claim-" + cell.Name() + ".json";
}

void RemoveJournalsAndClaims(const CampaignSpec& spec,
                             const std::string& out_dir) {
  for (const CellSpec& cell : spec.cells) {
    std::error_code ec;
    std::filesystem::remove(JournalPath(out_dir, cell), ec);
    std::filesystem::remove(ClaimPath(out_dir, cell), ec);
  }
}

void WriteJournal(const std::string& path, const std::string& campaign,
                  const std::string& fault_fingerprint,
                  const CellOutcome& outcome) {
  AtomicFileWriter out(path);
  CLOVER_CHECK_MSG(out.good(), "cannot open " << out.temp_path()
                                              << " for writing");
  {
    JsonWriter json(&out.stream());
    json.BeginObject();
    json.Key("schema");
    json.String("clover-campaign-run-v1");
    json.Key("campaign");
    json.String(campaign);
    json.Key("cell");
    json.String(outcome.cell.Name());
    if (outcome.cell.fault_seed != 0) {
      json.Key("fault_profile");
      json.String(fault_fingerprint);
    }
    json.Key("wall_seconds");
    json.Number(outcome.wall_seconds);
    json.Key("candidates");
    json.UInt(outcome.candidates);
    json.Key("report");
    json.BeginObject();
    const core::RunReport& report = outcome.report;
    json.Key("arrivals");
    json.UInt(report.arrivals);
    json.Key("completions");
    json.UInt(report.completions);
    json.Key("total_energy_j");
    json.Number(report.total_energy_j);
    json.Key("total_carbon_g");
    json.Number(report.total_carbon_g);
    json.Key("weighted_accuracy");
    json.Number(report.weighted_accuracy);
    json.Key("overall_p50_ms");
    json.Number(report.overall_p50_ms);
    json.Key("overall_p95_ms");
    json.Number(report.overall_p95_ms);
    json.Key("overall_p99_ms");
    json.Number(report.overall_p99_ms);
    json.Key("carbon_per_request_g");
    json.Number(report.carbon_per_request_g);
    json.Key("sim_events");
    json.UInt(report.sim_events);
    json.Key("wall_seconds");
    json.Number(report.wall_seconds);
    json.EndObject();
    json.EndObject();
    out.stream() << "\n";
  }
  out.Commit();
}

std::optional<CellOutcome> LoadJournal(const std::string& path,
                                       const CellSpec& cell,
                                       const std::string& fault_fingerprint) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return std::nullopt;
  try {
    const JsonValue doc = ParseJsonFile(path);
    if (doc.At("schema").AsString() != "clover-campaign-run-v1")
      return std::nullopt;
    if (doc.At("cell").AsString() != cell.Name()) return std::nullopt;
    if (cell.fault_seed != 0) {
      const JsonValue* journaled = doc.Find("fault_profile");
      if (journaled == nullptr || journaled->AsString() != fault_fingerprint)
        return std::nullopt;
    }
    CellOutcome outcome;
    outcome.cell = cell;
    outcome.resumed = true;
    outcome.wall_seconds = doc.At("wall_seconds").AsNumber();
    outcome.candidates = doc.At("candidates").AsUInt();
    const JsonValue& report = doc.At("report");
    outcome.report.arrivals = report.At("arrivals").AsUInt();
    outcome.report.completions = report.At("completions").AsUInt();
    outcome.report.total_energy_j = report.At("total_energy_j").AsNumber();
    outcome.report.total_carbon_g = report.At("total_carbon_g").AsNumber();
    outcome.report.weighted_accuracy =
        report.At("weighted_accuracy").AsNumber();
    outcome.report.overall_p50_ms = report.At("overall_p50_ms").AsNumber();
    outcome.report.overall_p95_ms = report.At("overall_p95_ms").AsNumber();
    outcome.report.overall_p99_ms = report.At("overall_p99_ms").AsNumber();
    outcome.report.carbon_per_request_g =
        report.At("carbon_per_request_g").AsNumber();
    outcome.report.sim_events = report.At("sim_events").AsUInt();
    outcome.report.wall_seconds = report.At("wall_seconds").AsNumber();
    outcome.report.app = cell.app;
    outcome.report.scheme = cell.scheme;
    return outcome;
  } catch (const std::exception& error) {
    // Torn write from a killed campaign, hand-edited damage, a type
    // mismatch, or a filesystem error (e.g. the path is a directory): any
    // of these means "no valid journal" — the cell simply re-runs. Before
    // this caught all of std::exception, a non-JsonParseError here aborted
    // the whole campaign instead of re-running one cell.
    CLOVER_WARN("campaign: discarding journal " << path << " ("
                << error.what() << ")");
    return std::nullopt;
  }
}

std::vector<SummaryRow> BuildSummary(const std::vector<CellOutcome>& cells) {
  std::map<std::string, const CellOutcome*> by_name;
  for (const CellOutcome& outcome : cells)
    by_name[outcome.cell.Name()] = &outcome;
  std::vector<SummaryRow> rows;
  rows.reserve(cells.size());
  for (const CellOutcome& outcome : cells) {
    SummaryRow row;
    row.outcome = &outcome;
    row.base = nullptr;
    if (outcome.cell.scheme != core::Scheme::kBase) {
      CellSpec twin = outcome.cell;
      twin.scheme = core::Scheme::kBase;
      const auto it = by_name.find(twin.Name());
      if (it != by_name.end()) row.base = it->second;
    }
    rows.push_back(row);
  }
  return rows;
}

void WriteConsolidated(const std::string& path, const CampaignSpec& spec,
                       const SuiteTiming& suite,
                       const std::vector<SummaryRow>& summary) {
  AtomicFileWriter out(path);
  CLOVER_CHECK_MSG(out.good(), "cannot open " << out.temp_path()
                                              << " for writing");
  {
    JsonWriter json(&out.stream());
    json.BeginObject();
    WriteSuiteFields(&json, suite);
    json.Key("campaign");
    json.BeginObject();
    json.Key("schema");
    json.String("clover-campaign-v1");
    json.Key("name");
    json.String(spec.name);
    json.Key("description");
    json.String(spec.description);
    json.Key("mode");
    json.String(spec.mode == CampaignMode::kFleet ? "fleet" : "single");
    json.Key("grid_cells");
    json.Int(spec.grid_cells);
    json.Key("unique_cells");
    json.Int(static_cast<std::int64_t>(summary.size()));
    json.Key("resumed_cells");
    json.Int(static_cast<std::int64_t>(summary.size()));
    json.Key("summary");
    json.BeginArray();
    for (const SummaryRow& row : summary) {
      const core::RunReport& report = row.outcome->report;
      json.BeginObject();
      json.Key("cell");
      json.String(row.outcome->cell.Name());
      json.Key("scheme");
      json.String(core::SchemeName(row.outcome->cell.scheme));
      json.Key("app");
      json.String(models::ApplicationName(row.outcome->cell.app));
      json.Key("completions");
      json.UInt(report.completions);
      json.Key("total_carbon_g");
      json.Number(report.total_carbon_g);
      json.Key("carbon_per_request_g");
      json.Number(report.carbon_per_request_g);
      json.Key("weighted_accuracy");
      json.Number(report.weighted_accuracy);
      json.Key("p95_ms");
      json.Number(report.overall_p95_ms);
      json.Key("carbon_save_pct_vs_base");
      if (row.base != nullptr) {
        json.Number(report.CarbonSavePctVs(row.base->report));
      } else {
        json.Null();
      }
      json.Key("accuracy_loss_pct_vs_base");
      if (row.base != nullptr) {
        json.Number(report.AccuracyLossPctVs(row.base->report));
      } else {
        json.Null();
      }
      json.Key("p95_norm_vs_base");
      if (row.base != nullptr) {
        json.Number(report.P95NormVs(row.base->report));
      } else {
        json.Null();
      }
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    json.EndObject();
    out.stream() << "\n";
  }
  out.Commit();
}

void PrintSummaryTable(const std::vector<SummaryRow>& summary) {
  TextTable table({"cell", "served", "gCO2", "accuracy", "p95 (ms)",
                   "save% vs BASE", "acc loss%", "p95 norm"});
  for (const SummaryRow& row : summary) {
    const core::RunReport& report = row.outcome->report;
    const bool has_base = row.base != nullptr;
    table.AddRow(
        {row.outcome->cell.Name(), std::to_string(report.completions),
         TextTable::Num(report.total_carbon_g, 1),
         TextTable::Num(report.weighted_accuracy, 2),
         TextTable::Num(report.overall_p95_ms, 2),
         has_base
             ? TextTable::Num(report.CarbonSavePctVs(row.base->report), 1)
             : std::string("-"),
         has_base
             ? TextTable::Num(report.AccuracyLossPctVs(row.base->report), 2)
             : std::string("-"),
         has_base ? TextTable::Num(report.P95NormVs(row.base->report), 2)
                  : std::string("-")});
  }
  table.Print(std::cout);
}

}  // namespace clover::exp
