// The 19 valid MIG partition layouts of an NVIDIA A100 (paper Fig. 1).
//
// A layout is an ordered, fully-occupied assignment of profiles to the 7
// compute slots, subject to the A100 placement rules:
//   * 7g occupies all slots;        * 4g starts at slot 0;
//   * 3g starts at slot 0 or 4;     * 2g starts at slot 0, 2 or 4;
//   * 1g can start at any slot;     * total memory slices <= 8.
// Enumerating all such layouts yields exactly 19 configurations, matching
// the paper's anchors: #1 = {7g}, #3 = {4g,2g,1g}, #10 = {1g,1g,2g,3g},
// #19 = seven 1g. EnumerateLayouts() derives the set from the rules;
// MigConfigTable serves the canonical numbered list.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mig/slice_type.h"

namespace clover::mig {

// Count of slices per type; index with static_cast<size_t>(SliceType).
using SliceCounts = std::array<int, kNumSliceTypes>;

// Total compute slots covered by the counts.
int TotalComputeSlots(const SliceCounts& counts);
// Total memory slices covered by the counts.
int TotalMemorySlices(const SliceCounts& counts);
// Total number of slices (= max hostable service instances).
int TotalSlices(const SliceCounts& counts);

// One of the 19 partition layouts.
struct MigLayout {
  int id = 0;                      // 1-based, paper Fig. 1 numbering
  std::vector<SliceType> slices;   // left-to-right placement order

  SliceCounts Counts() const;
  int NumSlices() const { return static_cast<int>(slices.size()); }
  std::string ToString() const;    // e.g. "[1g 1g 2g 3g]"
};

// Canonical table of the 19 layouts.
class MigConfigTable {
 public:
  // Singleton accessor; the table is immutable.
  static const MigConfigTable& Get();

  int NumLayouts() const { return static_cast<int>(layouts_.size()); }

  // 1-based lookup (paper numbering).
  const MigLayout& Layout(int id) const;

  const std::vector<MigLayout>& layouts() const { return layouts_; }

  // The finest layout, seven 1g slices (paper configuration 19).
  const MigLayout& FinestPartition() const { return Layout(NumLayouts()); }

  // Finds the layout matching an (unordered) multiset of slices; returns
  // nullptr if no layout has exactly those counts. When several ordered
  // layouts share a multiset (e.g. [3g 1g 2g 1g] vs [1g 1g 2g 3g]) the one
  // with the smallest id is returned.
  const MigLayout* FindByCounts(const SliceCounts& counts) const;

 private:
  MigConfigTable();
  std::vector<MigLayout> layouts_;
};

// Derives the full layout set from the placement rules (slot positions +
// memory budget). Returned in the canonical order used by MigConfigTable.
// Exposed so tests can verify the static table against first principles.
std::vector<std::vector<SliceType>> EnumerateLayouts();

}  // namespace clover::mig
