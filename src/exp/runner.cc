#include "exp/runner.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/check.h"
#include "common/fs.h"
#include "common/json.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "exp/journal.h"
#include "fleet/meanfield_fleet.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/triage.h"

namespace clover::exp {
namespace {

namespace fs = std::filesystem;

// Idle re-scan interval while live peers hold the remaining cells.
constexpr std::chrono::milliseconds kPollInterval{100};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double UnixNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string HostName() {
  char buffer[256] = {};
  if (::gethostname(buffer, sizeof(buffer) - 1) != 0) return "unknown";
  return buffer;
}

std::uint64_t CountCandidates(const core::RunReport& report) {
  std::uint64_t candidates = 0;
  for (const core::OptimizationRun& run : report.optimizations)
    candidates += run.search.evaluations.size();
  return candidates;
}

// POSIX single-quote quoting: the only character that needs care inside
// single quotes is the single quote itself ('\'' splice).
std::string ShellQuote(const std::string& text) {
  std::string out = "'";
  for (const char c : text) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out.push_back(c);
    }
  }
  out += "'";
  return out;
}

// Claim file content (schema clover-campaign-claim-v1). The owner token is
// the authoritative field — StillOwns compares it; pid/host/heartbeat are
// for humans and the staleness check.
std::string ClaimContent(const std::string& campaign, const std::string& cell,
                         const std::string& owner) {
  std::ostringstream out;
  {
    JsonWriter json(&out);
    json.BeginObject();
    json.Key("schema");
    json.String("clover-campaign-claim-v1");
    json.Key("campaign");
    json.String(campaign);
    json.Key("cell");
    json.String(cell);
    json.Key("owner");
    json.String(owner);
    json.Key("pid");
    json.Int(static_cast<std::int64_t>(::getpid()));
    json.Key("host");
    json.String(HostName());
    json.Key("heartbeat_unix_s");
    json.Number(UnixNowSeconds());
    json.EndObject();
  }
  out << "\n";
  return out.str();
}

std::optional<std::string> ReadClaimOwner(const std::string& path) {
  const std::optional<std::string> content = ReadFileToString(path);
  if (!content) return std::nullopt;
  try {
    return ParseJson(*content).At("owner").AsString();
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

// Heartbeat age in seconds. Prefers the claim's own heartbeat field (works
// across hosts sharing a clock); falls back to the file mtime when the
// content is torn or unreadable, so a damaged claim still expires instead
// of wedging the cell forever.
double ClaimAgeSeconds(const std::string& path) {
  if (const std::optional<std::string> content = ReadFileToString(path)) {
    try {
      return UnixNowSeconds() -
             ParseJson(*content).At("heartbeat_unix_s").AsNumber();
    } catch (const std::exception&) {
    }
  }
  std::error_code ec;
  const fs::file_time_type mtime = fs::last_write_time(path, ec);
  if (ec) return 0.0;  // vanished mid-check: someone owns it; retry later
  return std::chrono::duration<double>(fs::file_time_type::clock::now() -
                                       mtime)
      .count();
}

// Owns this process's claims: O_EXCL acquisition, TTL-based stealing, and
// a background heartbeat thread that refreshes every held claim — one per
// busy pool slot — atomically, so claim files are never torn.
class ClaimManager {
 public:
  ClaimManager(std::string campaign, double ttl_s)
      : campaign_(std::move(campaign)),
        owner_(HostName() + "#" + std::to_string(::getpid())),
        ttl_s_(ttl_s),
        heartbeat_([this] { HeartbeatLoop(); }) {}

  ~ClaimManager() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    heartbeat_.join();
  }

  ClaimManager(const ClaimManager&) = delete;
  ClaimManager& operator=(const ClaimManager&) = delete;

  const std::string& owner() const { return owner_; }

  // True iff this process now holds the claim on `cell`. Fresh foreign
  // claims lose; claims whose heartbeat is stale past the TTL are stolen.
  bool TryClaim(const std::string& path, const std::string& cell) {
    if (!CreateFileExclusive(path, ClaimContent(campaign_, cell, owner_))) {
      if (ClaimAgeSeconds(path) <= ttl_s_) return false;
      // Stale claim: its process stopped heartbeating (killed, or stalled
      // longer than the TTL). Rename it away — of N concurrent stealers
      // exactly one rename succeeds — then race for the vacant slot like
      // any fresh claim.
      const std::string away = path + ".stale-" +
                               std::to_string(::getpid()) + "-" +
                               std::to_string(steal_seq_++);
      std::error_code ec;
      fs::rename(path, away, ec);
      if (ec) return false;  // another stealer (or the owner's refresh) won
      fs::remove(away, ec);
      if (!CreateFileExclusive(path, ClaimContent(campaign_, cell, owner_)))
        return false;
      CLOVER_OBS_COUNT("campaign.claim_steals", 1);
      CLOVER_WARN("campaign: stole stale claim on " << cell
                  << " (heartbeat older than " << ttl_s_ << " s)");
    }
    CLOVER_OBS_COUNT("campaign.claims", 1);
    std::lock_guard<std::mutex> lock(mutex_);
    held_[path] = cell;
    return true;
  }

  bool StillOwns(const std::string& path) const {
    const std::optional<std::string> owner = ReadClaimOwner(path);
    return owner.has_value() && *owner == owner_;
  }

  // Stops heartbeating the claim and deletes it if still ours. The erase
  // waits out any refresh in flight, so a released claim never reappears.
  void Release(const std::string& path) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      held_.erase(path);
    }
    if (StillOwns(path)) {
      std::error_code ec;
      fs::remove(path, ec);
    }
  }

 private:
  void HeartbeatLoop() {
    const auto interval =
        std::chrono::duration<double>(std::max(0.05, ttl_s_ / 4.0));
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, interval, [this] { return stop_; })) {
      for (const auto& [path, cell] : held_) Refresh(path, cell);
    }
  }

  void Refresh(const std::string& path, const std::string& cell) const {
    // Never resurrect a stolen claim: the stealer owns the cell now; the
    // commit-time conflict check reports the double execution.
    if (!StillOwns(path)) return;
    try {
      AtomicFileWriter out(path);
      if (!out.good()) return;
      out.stream() << ClaimContent(campaign_, cell, owner_);
      out.Commit();
    } catch (const std::exception&) {
      // Best effort: a missed heartbeat only risks an early steal, which
      // the protocol tolerates.
    }
  }

  const std::string campaign_;
  const std::string owner_;
  const double ttl_s_;
  std::atomic<std::uint64_t> steal_seq_{0};

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::map<std::string, std::string> held_;  // claim path -> cell name
  std::thread heartbeat_;  // last member: starts after everything it reads
};

// A claim conflict means this process stalled past the TTL, a peer stole
// the cell, and both executed it. Cells are deterministic so the journal
// content is unaffected — but the wasted work and the TTL-vs-cell-duration
// mismatch deserve a paper trail.
void ReportClaimConflict(const CampaignSpec& spec, const CellSpec& cell,
                         const std::string& owner, bool journal_existed) {
  CLOVER_OBS_COUNT("campaign.claim_conflicts", 1);
  obs::TriageContext triage;
  triage.name = "campaign-claim-" + cell.Name();
  triage.reason =
      "campaign claim conflict: cell executed by two workers (claim stolen "
      "mid-run). Output is unaffected — cells are deterministic — but the "
      "claim TTL is tighter than this cell's duration, or hosts disagree "
      "on the clock.";
  triage.repro_command = CellReproCommand(spec);
  triage.config = {
      {"campaign", spec.name},
      {"cell", cell.Name()},
      {"owner", owner},
      {"journal_existed", journal_existed ? "true" : "false"},
  };
  const std::string dir = obs::WriteTriageBundle(triage);
  CLOVER_WARN("campaign: claim conflict on " << cell.Name()
              << (dir.empty() ? "" : "; triage bundle " + dir));
}

// On any cell failure: write a triage bundle naming the cell, its config
// key-values and the repro command, then rethrow — the campaign still
// fails, but the artifact makes the red run reproducible by itself.
[[noreturn]] void TriageCellFailure(const CampaignSpec& spec,
                                    const CellSpec& cell,
                                    const std::exception& error) {
  CLOVER_OBS_COUNT("campaign.cell_failures", 1);
  obs::TriageContext triage;
  triage.name = "campaign-" + cell.Name();
  triage.reason = std::string("campaign cell failed: ") + error.what();
  triage.repro_command = CellReproCommand(spec);
  triage.config = {
      {"campaign", spec.name},
      {"spec_path", spec.source_path},
      {"cell", cell.Name()},
      {"cell_describe", cell.Describe()},
      {"seed", std::to_string(cell.seed)},
      {"fault_seed", std::to_string(cell.fault_seed)},
  };
  const std::string dir = obs::WriteTriageBundle(triage);
  if (!dir.empty())
    CLOVER_WARN("campaign: triage bundle written to " << dir);
  throw;
}

// Executes one cell on the given reusable harness (fleet cells borrow its
// calibration cache); throws whatever the harness throws.
CellOutcome ExecuteCell(const CampaignSpec& spec, const CellSpec& cell,
                        core::ExperimentHarness* harness) {
  CLOVER_TRACE_SCOPE("campaign.cell");
  CLOVER_OBS_COUNT("campaign.cells", 1);
  CellOutcome outcome;
  outcome.cell = cell;
  // Chaos hook for exercising the triage path end to end (tests, and the
  // "does a failed cell really emit a usable bundle?" acceptance check):
  // CLOVER_CAMPAIGN_FAIL_CELL=<cell name> makes exactly that cell throw.
  if (const char* fail = std::getenv("CLOVER_CAMPAIGN_FAIL_CELL");
      fail != nullptr && cell.Name() == fail) {
    throw std::runtime_error("campaign cell '" + cell.Name() +
                             "' failed by CLOVER_CAMPAIGN_FAIL_CELL");
  }
  const auto start = std::chrono::steady_clock::now();
  if (cell.mode == CampaignMode::kFleet) {
    // The fidelity axis picks the region tier: discrete-event RunFleet or
    // the fluid fast path (the only way a 1000-region cell is tractable).
    const fleet::FleetReport fleet_report =
        cell.meanfield
            ? fleet::RunFleetMeanField(MakeFleetCellConfig(cell),
                                       models::DefaultZoo(), harness)
            : fleet::RunFleet(MakeFleetCellConfig(cell), models::DefaultZoo(),
                              harness);
    outcome.report = fleet_report.fleet;
    for (const fleet::RegionReport& region : fleet_report.regions)
      outcome.candidates += CountCandidates(region.report);
  } else {
    const carbon::CarbonTrace trace = MakeCellTrace(cell);
    outcome.report =
        harness->Run(MakeCellConfig(cell, spec.fault_profile, &trace));
    outcome.candidates = CountCandidates(outcome.report);
  }
  outcome.wall_seconds = SecondsSince(start);
  return outcome;
}

ScenarioTiming CellScenarioRow(const CellOutcome& outcome) {
  ScenarioTiming timing;
  timing.name = outcome.cell.Name();
  timing.wall_seconds = outcome.wall_seconds;
  timing.events = outcome.report.sim_events;
  timing.candidates = outcome.candidates;
  if (outcome.wall_seconds > 0.0) {
    timing.events_per_sec =
        static_cast<double>(timing.events) / outcome.wall_seconds;
    timing.candidates_per_sec =
        static_cast<double>(timing.candidates) / outcome.wall_seconds;
  }
  timing.sim_p50_ms = outcome.report.overall_p50_ms;
  timing.sim_p99_ms = outcome.report.overall_p99_ms;
  // Deterministic notes (no wall-clock content): rows differ between runs
  // only in their timing fields.
  timing.notes = outcome.cell.Describe() + "; served " +
                 std::to_string(outcome.report.completions) + " of " +
                 std::to_string(outcome.report.arrivals);
  return timing;
}

SuiteTiming CampaignSuite(const CampaignSpec& spec, int threads,
                          const std::vector<CellOutcome>& cells) {
  SuiteTiming suite;
  suite.suite = spec.name;
  suite.threads = threads;
  suite.seed = spec.cells.front().seed;
  for (const CellOutcome& outcome : cells)
    suite.scenarios.push_back(CellScenarioRow(outcome));
  return suite;
}

}  // namespace

std::string CellReproCommand(const CampaignSpec& spec) {
  const std::string source =
      spec.source_path.empty() ? ("<campaign spec '" + spec.name + "'>")
                               : spec.source_path;
  const char* triage_env = std::getenv("CLOVER_TRIAGE_DIR");
  const std::string triage_root =
      (triage_env != nullptr && *triage_env != '\0') ? triage_env : "triage";
  // Cells are deterministic per spec + name, so a single-threaded re-run of
  // the whole spec reproduces the failing cell.
  return "CLOVER_TRIAGE_DIR=" + ShellQuote(triage_root + "/repro") +
         " ./build/examples/clover_campaign run " + ShellQuote(source) +
         " --threads 1";
}

CampaignResult RunCampaign(const CampaignSpec& spec,
                           const CampaignOptions& options) {
  CLOVER_CHECK_MSG(!spec.cells.empty(), "campaign has no cells");
  const int threads = options.threads > 0 ? options.threads : spec.threads;
  CLOVER_CHECK_MSG(threads >= 1 && threads <= 1024,
                   "campaign threads out of range: " << threads);
  CLOVER_CHECK_MSG(options.claim_ttl_s > 0.0,
                   "claim TTL must be positive: " << options.claim_ttl_s);
  fs::create_directories(options.out_dir + "/runs");
  if (!options.resume) RemoveJournalsAndClaims(spec, options.out_dir);

  const std::string fingerprint = FaultProfileFingerprint(spec.fault_profile);
  const std::size_t n = spec.cells.size();
  CampaignResult result;
  result.name = spec.name;
  result.threads = threads;
  result.grid_cells = spec.grid_cells;
  result.cells.resize(n);

  // journaled[i] holds cell i's committed journal once seen; executed[i]
  // marks the cells whose in-memory outcome this run put in result.cells.
  // Pool tasks touch only their own index, the scan only between passes.
  std::vector<std::optional<CellOutcome>> journaled(n);
  std::vector<char> executed(n, 0);
  auto load_journal = [&](std::size_t i) {
    return LoadJournal(JournalPath(options.out_dir, spec.cells[i]),
                       spec.cells[i], fingerprint);
  };
  auto has_journal = [&](std::size_t i) {
    if (!journaled[i]) journaled[i] = load_journal(i);
    return journaled[i].has_value();
  };

  const auto start = std::chrono::steady_clock::now();
  ClaimManager claims(spec.name, options.claim_ttl_s);
  ThreadPool pool(threads);
  // One harness per slot: ParallelFor sequences same-slot tasks, so the
  // calibration cache needs no locking; per-cell results are unaffected
  // by the sharing because calibration is deterministic per setting.
  std::vector<std::unique_ptr<core::ExperimentHarness>> harnesses(
      static_cast<std::size_t>(pool.num_threads()));

  // Work-or-wait loop: each pass claims and executes every unjournaled,
  // unclaimed cell; when the only remaining cells belong to live peers,
  // sleep a poll interval and re-scan (a peer's crash surfaces as a stale
  // claim on some later pass).
  for (;;) {
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < n; ++i)
      if (!has_journal(i)) open.push_back(i);
    if (open.empty()) break;
    std::atomic<bool> progress{false};
    pool.ParallelFor(open.size(), [&](int slot, std::size_t k) {
      const std::size_t i = open[k];
      const CellSpec& cell = spec.cells[i];
      const std::string claim_path = ClaimPath(options.out_dir, cell);
      if (!claims.TryClaim(claim_path, cell.Name())) return;
      progress = true;
      if (has_journal(i)) {
        // Raced a publisher between the scan and the claim: the cell is
        // already committed; drop the claim.
        claims.Release(claim_path);
        return;
      }
      auto& harness = harnesses[static_cast<std::size_t>(slot)];
      if (!harness)
        harness =
            std::make_unique<core::ExperimentHarness>(&models::DefaultZoo());
      CellOutcome outcome;
      try {
        outcome = ExecuteCell(spec, cell, harness.get());
      } catch (const std::exception& error) {
        // Leave the cell unclaimed and unjournaled: a peer will retry it,
        // deterministically hit the same failure, and triage it too.
        claims.Release(claim_path);
        TriageCellFailure(spec, cell, error);
      }
      // A valid journal here means a peer committed the cell meanwhile; a
      // damaged one (the reason the cell re-ran) is simply overwritten.
      const bool journal_existed = load_journal(i).has_value();
      if (journal_existed || !claims.StillOwns(claim_path))
        ReportClaimConflict(spec, cell, claims.owner(), journal_existed);
      if (!journal_existed)
        WriteJournal(JournalPath(options.out_dir, cell), spec.name,
                     fingerprint, outcome);
      claims.Release(claim_path);
      // journaled[i] stays empty: the next scan re-reads the committed
      // journal from disk, so the fold sees exactly what any peer sees.
      result.cells[i] = std::move(outcome);
      executed[i] = 1;
    });
    if (!progress) std::this_thread::sleep_for(kPollInterval);
  }
  result.wall_seconds = SecondsSince(start);
  // Post-join barrier: every cell's instrumented work is complete here.
  CLOVER_OBS_SAMPLE(result.wall_seconds);

  // FOLD. Every row comes from its journal on disk, never from this run's
  // in-memory outcomes, so which run folds cannot matter. Zeroing the wall
  // clocks (the one run-dependent journal field) makes the published bytes
  // a pure function of the spec.
  std::vector<CellOutcome> folded;
  folded.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (executed[i]) {
      ++result.executed_cells;
    } else {
      result.cells[i] = *journaled[i];
      ++result.resumed_cells;
    }
    folded.push_back(std::move(*journaled[i]));
    folded.back().wall_seconds = 0.0;
  }
  result.consolidated_path =
      options.out_dir + "/CAMPAIGN_" + spec.name + ".json";
  WriteConsolidated(result.consolidated_path, spec,
                    CampaignSuite(spec, spec.threads, folded),
                    BuildSummary(folded));
  CLOVER_OBS_COUNT("campaign.folds", 1);

  result.suite = CampaignSuite(spec, threads, result.cells);
  if (options.print_tables) {
    PrintSuiteTable(result.suite);
    std::cout << "\n";
    PrintSummaryTable(BuildSummary(result.cells));
  }
  return result;
}

}  // namespace clover::exp
