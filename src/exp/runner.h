// Campaign execution: the one executor behind every campaign run — a
// `clover_campaign run` at any --threads, each process of `run --workers
// N`, a `worker` joining from another shell or host, and library callers.
// Every run shards cells over its thread pool and coordinates with any
// other run sharing <out>/runs/ through a protocol built from two atomic
// filesystem operations, so it works on any shared POSIX filesystem
// (specified in docs/CAMPAIGNS.md):
//
//   CLAIM    Before executing a cell, a pool slot creates
//            runs/.claim-<cell>.json with O_CREAT|O_EXCL — of N racing
//            slots or processes exactly one wins. The claim carries the
//            owner token ("<host>#<pid>"), pid, host and a heartbeat
//            timestamp; a background thread refreshes every claim the
//            process holds every ttl/4.
//   STEAL    A claim whose heartbeat is older than the TTL belongs to a
//            crashed (or stopped) process. A stealer atomically renames the
//            stale claim away — only one concurrent stealer's rename
//            succeeds — and then re-claims the cell, so a killed worker's
//            cells get re-executed rather than lost.
//   COMMIT   A finished cell is journaled to runs/<cell>.json with tmp +
//            rename (exp/journal.h): the journal's existence is the
//            commit, and the claim is deleted.
//   FOLD     Once every cell is journaled, the run loads all journals and
//            publishes CAMPAIGN_<name>.json. The fold is wall-clock-free
//            (timing columns zeroed, threads pinned to the spec's value,
//            every row rebuilt from its journal), so the consolidated file
//            is byte-identical at any thread or worker count, across
//            crashes, and whichever run folds — concurrent folds publish
//            identical bytes through atomic renames and cannot tear.
//
// Fresh runs and resume: with resume = false a run first removes this
// spec's journals and claims, so every cell re-executes. With resume =
// true it adopts every valid journal — an earlier run's or a concurrent
// peer's — and executes only the rest. Damaged journals (a killed run's
// leftovers, hand-edited files, even a directory squatting on the name)
// are discarded and re-executed, as are fault-cell journals whose recorded
// fault_profile fingerprint no longer matches the spec (cell names do not
// encode the profile rates).
//
// Conflicts: if a process stalled past the TTL, lost its claim to a
// stealer, and both executed the cell, results are still identical (cells
// are deterministic functions of the spec), but the event is counted
// (campaign.claim_conflicts) and leaves a triage bundle — a conflict means
// the TTL is too tight for the cell duration or the clock skew between
// hosts. Every cooperating run must be given the same expanded spec; the
// journal checks reject mismatched fault profiles but cannot detect every
// divergence.
//
// Determinism contract (enforced by tests/campaign_test.cc): a cell's
// results are a function of the cell alone — every run builds its own
// trace and simulator state, and the fold is by cell index — so campaign
// results are bit-identical at any thread count, and bit-identical to
// running the same ExperimentConfig directly through the harness (the
// bench path).
//
// Consolidated document: a clover-bench-v1 document (validated by
// scripts/validate_bench_json.py like every BENCH_*.json) with one
// scenario row per unique cell, plus a "campaign" object carrying the
// grid bookkeeping and a per-cell summary table with vs-BASE columns
// (carbon save, accuracy loss, p95 ratio) wherever the campaign also ran
// the cell's BASE twin.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/bench_json.h"
#include "exp/campaign.h"

namespace clover::exp {

struct CampaignOptions {
  int threads = 0;                 // pool slots; 0 -> spec.threads
  std::string out_dir = "campaign_out";
  bool resume = false;             // adopt <out>/runs/ journals
  bool print_tables = false;       // human summary on stdout
  // Claims with heartbeats older than this are stolen. Must exceed the
  // worst-case heartbeat-write stall and any cross-host clock skew.
  double claim_ttl_s = 30.0;
};

struct CellOutcome {
  CellSpec cell;
  bool resumed = false;            // adopted from a journal
  double wall_seconds = 0.0;       // executed (or journaled) wall time
  std::uint64_t candidates = 0;    // optimizer evaluations
  // Full report for cells this run executed. Adopted cells carry the
  // journaled scalar fields (counters, totals, quantiles); window series
  // and optimization bookkeeping are not journaled.
  core::RunReport report;
};

struct CampaignResult {
  std::string name;
  int threads = 1;                 // pool slots this run used
  std::vector<CellOutcome> cells;  // grid order (post-dedup)
  int grid_cells = 0;              // before dedup
  // executed_cells + resumed_cells == cells.size(): every cell was either
  // executed by this run or adopted from a journal (this run's resume, or
  // a concurrent peer's commit).
  int resumed_cells = 0;
  int executed_cells = 0;
  double wall_seconds = 0.0;       // claim/execute/commit loop; fold excluded
  SuiteTiming suite;               // rows of `cells`, wall times included
  std::string consolidated_path;
};

// Runs the campaign to completion: claims and executes unjournaled cells
// on the thread pool, waits for cells owned by live peers, steals from
// dead ones, and folds the consolidated output once every cell is
// journaled. Throws on the first failing cell, after writing its triage
// bundle.
CampaignResult RunCampaign(const CampaignSpec& spec,
                           const CampaignOptions& options);

// The exact shell command that re-runs one cell of this campaign, safe to
// paste into a POSIX shell: the spec path is shell-quoted (paths with
// spaces or quotes must not splice into repro.sh as syntax), and
// CLOVER_TRIAGE_DIR is redirected to a "<triage root>/repro" subdirectory
// so the repro run's own bundle can never clobber the bundle that told you
// to run it.
std::string CellReproCommand(const CampaignSpec& spec);

}  // namespace clover::exp
