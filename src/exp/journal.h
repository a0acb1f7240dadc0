// The campaign journal protocol: per-cell result files under
// <out>/runs/ that double as the crash-safety and multi-process
// coordination substrate.
//
// File layout inside <out>/runs/:
//
//   <cell>.json              committed journal (clover-campaign-run-v1).
//                            Published atomically: written to a hidden
//                            ".tmp-<cell>.json.<pid>.<seq>" sibling and
//                            renamed into place, so the existence of the
//                            file IS the commit — no reader can ever
//                            observe a partial journal.
//   .claim-<cell>.json       a run's in-progress claim on the cell
//                            (clover-campaign-claim-v1; see exp/runner.h).
//   .tmp-*                   uncommitted writes; a crashed worker's
//                            leftovers. Never read: every scan keys on the
//                            exact journal/claim name.
//
// Recovery contract: LoadJournal treats *any* std::exception while reading
// or decoding a journal — torn JSON, a type mismatch, the path being a
// directory, an I/O error — as "this cell has no valid journal": it warns
// and returns nullopt so the cell simply re-runs. Only programmatic misuse
// (CHECK failures in the caller) aborts a campaign.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "exp/runner.h"

namespace clover::exp {

std::string JournalPath(const std::string& out_dir, const CellSpec& cell);
std::string ClaimPath(const std::string& out_dir, const CellSpec& cell);

// Deletes the journal and the claim of every cell of `spec` — how a fresh
// run starts over. Other campaigns' files in the directory are untouched.
void RemoveJournalsAndClaims(const CampaignSpec& spec,
                             const std::string& out_dir);

// Journals one finished cell (schema clover-campaign-run-v1) with an
// atomic tmp + rename publication. Only the scalar report fields are
// stored — enough to rebuild the consolidated scenario row and the summary
// table bit-identically on resume. `fault_fingerprint` pins fault cells to
// the campaign's fault_profile: the cell name does not encode the profile
// rates, so without it an edited profile would silently resume a different
// schedule's results.
void WriteJournal(const std::string& path, const std::string& campaign,
                  const std::string& fault_fingerprint,
                  const CellOutcome& outcome);

// Loads a journal written by WriteJournal. Returns nullopt — and leaves
// the cell to re-execute — when the file is missing, damaged in any way
// (see the recovery contract above), journals a different cell (a stale
// file under a colliding name), or is a fault cell journaled under a
// different fault_profile.
std::optional<CellOutcome> LoadJournal(const std::string& path,
                                       const CellSpec& cell,
                                       const std::string& fault_fingerprint);

// One consolidated summary row: a cell plus its BASE twin in the same
// campaign when the grid ran one (the vs-BASE delta columns need it).
struct SummaryRow {
  const CellOutcome* outcome;
  const CellOutcome* base;
};

std::vector<SummaryRow> BuildSummary(const std::vector<CellOutcome>& cells);

// Writes <out>/CAMPAIGN_<name>.json (clover-bench-v1 + campaign block)
// atomically from the fold's rows — one per cell, every one rebuilt from
// its journal (hence resumed_cells == unique_cells). Byte-for-byte
// deterministic given identical rows: the fold (exp/runner.h) feeds it
// wall-clock-free rows, so any run, at any thread or worker count,
// publishes identical bytes.
void WriteConsolidated(const std::string& path, const CampaignSpec& spec,
                       const SuiteTiming& suite,
                       const std::vector<SummaryRow>& summary);

// Human summary table for the rows WriteConsolidated serializes.
void PrintSummaryTable(const std::vector<SummaryRow>& summary);

}  // namespace clover::exp
