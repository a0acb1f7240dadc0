// Quantile estimation.
//
// LogHistogramQuantile is the estimator for run-level (multi-hour)
// latencies: the evaluation runs track p95 tail latency over 48 simulated
// hours at a few hundred requests/second, and storing every sample would
// cost hundreds of MB. A histogram is O(1) per update, insensitive to
// ordering (a nonstationary prefix such as a reconfiguration storm cannot
// distort it) and accurate to its bin width everywhere.
//
// ExactQuantile keeps all samples; the tests use it as ground truth.
//
// Allocation behaviour (the simulator calls Add once per completion, so
// this is a hot path): LogHistogramQuantile never allocates after
// construction. ExactQuantile grows its sample vector; Reserve() pre-sizes
// it.
//
// Thread-safety: neither estimator synchronizes; each accumulator is owned
// by exactly one simulator or runtime and protected by its owner.
// ExactQuantile::Quantile reorders its sample buffer in place
// (nth_element), so it is deliberately non-const — a shared estimator must
// not be queried concurrently, and the signature says so.
// LogHistogramQuantile::Quantile is a pure read and stays const.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace clover {

// Exact quantile over a stored sample vector (test/reference use).
class ExactQuantile {
 public:
  void Add(double x) { samples_.push_back(x); }
  std::size_t count() const { return samples_.size(); }

  // Pre-sizes the sample vector (Add never reallocates until `capacity`).
  void Reserve(std::size_t capacity) { samples_.reserve(capacity); }

  // Quantile q in [0,1] using the nearest-rank method (ceil(q*n)-th order
  // statistic). Returns 0 when empty. Non-const: partially sorts the
  // sample vector in place, so concurrent queries on a shared instance race
  // (see file comment).
  double Quantile(double q);

  void Reset() { samples_.clear(); }

 private:
  std::vector<double> samples_;
};

// Order-insensitive quantile estimator over logarithmic bins.
//
// Covers [kMinValue, kMaxValue) with kBinsPerDecade bins per decade
// (relative error <= half a bin, ~2.3% at 50 bins/decade); values outside
// the range clamp to the edge bins. O(1) updates, O(bins) queries.
class LogHistogramQuantile {
 public:
  static constexpr double kMinValue = 1e-2;   // 0.01 ms
  static constexpr double kMaxValue = 1e8;    // ~28 h
  static constexpr int kBinsPerDecade = 50;
  static constexpr int kDecades = 10;  // log10(kMaxValue / kMinValue)
  // Total bin count: kDecades full decades plus the two clamp bins (below
  // kMinValue, at/above kMaxValue).
  static constexpr std::size_t kNumBins =
      static_cast<std::size_t>(kDecades * kBinsPerDecade) + 2;

  LogHistogramQuantile();

  // The bin mapping as free (static) functions, so external accumulators
  // can share this histogram's geometry without owning an instance — the
  // lock-free ShardedLatencyStore (common/latency_store.h) keeps raw
  // atomic bin arrays and folds them back through Add(BinRepresentative).
  // BinIndex(x) is the bin Add(x) increments; BinRepresentative(bin) is
  // the value Quantile() reports for that bin, and it round-trips:
  // BinIndex(BinRepresentative(b)) == b for every b.
  static std::size_t BinIndex(double x);
  static double BinRepresentative(std::size_t bin);

  void Add(double x);
  // Adds `count` observations of value `x` in one update.
  void Add(double x, std::uint64_t count);
  std::uint64_t count() const { return count_; }

  // Nearest-rank quantile, interpolated geometrically within the bin.
  // Returns 0 when empty.
  double Quantile(double q) const;

  // Folds `other` into this histogram with every observation shifted by
  // `shift` (>= 0): each source bin is re-added at its representative value
  // (the geometric bin center) plus the shift. The shift makes the merge a
  // bin-resolution approximation, which is the estimator's accuracy anyway.
  // Used for fleet-level latency aggregation, where each region's
  // distribution is offset by its network penalty before merging; `other`
  // must not alias this histogram.
  void MergeShifted(const LogHistogramQuantile& other, double shift);

  void Reset();

 private:
  std::size_t BinOf(double x) const { return BinIndex(x); }
  // Representative value of a bin (the same geometric midpoint Quantile
  // reports for it).
  double BinValue(std::size_t bin) const { return BinRepresentative(bin); }

  std::vector<std::uint64_t> bins_;
  std::uint64_t count_ = 0;
};

}  // namespace clover
