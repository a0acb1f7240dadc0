// Lock-free metrics registry: named counters and histograms that
// instrumented sites update with one or two relaxed atomic fetch_adds,
// folded into timestamped snapshot rows at control/epoch boundaries.
//
//   * One accumulator per metric. A counter is one atomic word; a
//     histogram is an atomic copy of LogHistogramQuantile's bin array plus
//     an observation count. Every multi-writer site fires once per window,
//     batch, candidate, invocation or claim, and the one per-request site
//     (`net.admission.*`) has a single writer, so no site contends enough
//     to pay for per-thread shards. The live path's one per-event
//     multi-writer store is common/latency_store.h, which keeps its
//     per-worker shards.
//
//   * Order-insensitive folds. Counters fold by integer sum; a histogram
//     rebuilds a LogHistogramQuantile (same geometry via
//     BinIndex/BinRepresentative) bit-identical to a serial histogram fed
//     the same multiset of observations, whatever the thread schedule.
//     That property is what lets the ctest bit-identity gates stay green
//     with instrumentation enabled.
//
// Enablement is two-level. Compile-time: building with -DCLOVER_OBS=OFF
// defines CLOVER_OBS_BUILD=0 and every CLOVER_OBS_* macro below expands to
// a no-op that does not evaluate its arguments — instrumented hot paths pay
// literally nothing. Runtime (default off, set CLOVER_OBS=1 or call
// SetEnabled): each macro guards on one relaxed atomic bool load before
// touching its metric, so a compiled-in but disabled run pays one
// well-predicted branch per site.
//
// Determinism contract: a fold that races live writers sees each metric
// at some valid point but not one instant's cut. Registry::Sample is
// therefore only called where no other thread writes: a single-cluster
// run samples at the end of each optimizer invocation, a fleet at each
// control barrier (after its region fan-out joined), a campaign after its
// slots joined. There the recorded work is a deterministic function of the
// spec, so a fleet's snapshot rows reproduce across its thread count
// (tests/obs_test.cc pins this). In a multi-slot campaign and on the live
// path other threads write between samples; there only the campaign's
// post-join sample is a function of the spec.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/quantile.h"

namespace clover::obs {

// Runtime master switch for metric recording (and the CLOVER_OBS_* macro
// guards). First call consults $CLOVER_OBS ("1"/"on" enables); SetEnabled
// overrides. Reading is one relaxed atomic load.
bool Enabled();
void SetEnabled(bool on);

// Monotonic event counter. Add is wait-free (one relaxed fetch_add).
class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t Fold() const { return value_.load(std::memory_order_relaxed); }

  // Not safe concurrent with Add; callers reset between measurement
  // windows with writers quiesced (same contract as ShardedLatencyStore).
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Value-distribution accumulator in LogHistogramQuantile's bin geometry.
// Observe is two relaxed fetch_adds; Fold rebuilds a LogHistogramQuantile
// bit-identical to a serial one fed the same observations.
class Histogram {
 public:
  void Observe(double value) {
    bins_[LogHistogramQuantile::BinIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  LogHistogramQuantile Fold() const;
  std::uint64_t FoldCount() const {
    return count_.load(std::memory_order_relaxed);
  }
  void Reset();

 private:
  std::array<std::atomic<std::uint64_t>, LogHistogramQuantile::kNumBins>
      bins_{};
  std::atomic<std::uint64_t> count_{0};
};

enum class MetricKind : std::uint8_t { kCounter, kHistogram };

// One folded metric at one sample point. `count` is the counter value or
// histogram observation count; quantiles are histogram-only (0 otherwise).
struct SnapshotRow {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

// All metrics folded at one timestamp, rows sorted by (name, kind).
// Counters are cumulative (Prometheus-style): each snapshot reports the
// total since process start / last ResetForTest, not a delta.
struct Snapshot {
  double ts_s = 0.0;
  std::vector<SnapshotRow> rows;
};

// Process-wide metric registry. GetX registers on first use and returns a
// stable pointer (call sites cache it in a function-local static); Sample
// folds everything into the bounded snapshot log.
class Registry {
 public:
  static Registry& Get();

  Counter* GetCounter(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  // Folds every registered metric at timestamp `ts_s` (caller's clock —
  // virtual seconds at sim barriers, wall seconds elsewhere).
  Snapshot Fold(double ts_s) const;

  // Fold + append to the snapshot log. The log is bounded: beyond
  // kMaxSnapshots the oldest rows are dropped (flight-recorder semantics)
  // and the drop count is reported in the JSON dump.
  void Sample(double ts_s);

  std::vector<Snapshot> Snapshots() const;
  std::uint64_t SnapshotsDropped() const;

  // Writes the snapshot log plus a final fold as clover-metrics-v1 JSON.
  // Returns false (and logs a warning) on I/O failure; never throws.
  bool WriteMetricsJson(const std::string& path) const;

  // Zeroes every registered metric and clears the snapshot log. NOT safe
  // concurrent with writers; tests only.
  void ResetForTest();

  static constexpr std::size_t kMaxSnapshots = 4096;

 private:
  Registry() = default;

  mutable std::mutex mu_;  // guards the maps + snapshot log, never Add
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::vector<Snapshot> snapshots_;
  std::uint64_t snapshots_dropped_ = 0;
};

const char* MetricKindName(MetricKind kind);

}  // namespace clover::obs

// ---------------------------------------------------------------------------
// Instrumentation macros. CLOVER_OBS_BUILD is set by CMake (option
// CLOVER_OBS, default ON); when 0 the macros expand to no-ops that do not
// evaluate their arguments. When compiled in, each site pays one relaxed
// atomic bool load while disabled, and one function-local-static handle
// lookup plus a relaxed fetch_add while enabled.
// ---------------------------------------------------------------------------
#ifndef CLOVER_OBS_BUILD
#define CLOVER_OBS_BUILD 1
#endif

#if CLOVER_OBS_BUILD

#define CLOVER_OBS_COUNT(name_literal, n)                        \
  do {                                                           \
    if (::clover::obs::Enabled()) {                              \
      static ::clover::obs::Counter* const clover_obs_counter_ = \
          ::clover::obs::Registry::Get().GetCounter(name_literal); \
      clover_obs_counter_->Add(                                  \
          static_cast<std::uint64_t>(n));                        \
    }                                                            \
  } while (0)

#define CLOVER_OBS_OBSERVE(name_literal, v)                            \
  do {                                                                 \
    if (::clover::obs::Enabled()) {                                    \
      static ::clover::obs::Histogram* const clover_obs_histogram_ =   \
          ::clover::obs::Registry::Get().GetHistogram(name_literal);   \
      clover_obs_histogram_->Observe(static_cast<double>(v));          \
    }                                                                  \
  } while (0)

// Fold all metrics into the snapshot log at timestamp `ts` (seconds).
// Call only at barriers — see the determinism contract above.
#define CLOVER_OBS_SAMPLE(ts)                           \
  do {                                                  \
    if (::clover::obs::Enabled()) {                     \
      ::clover::obs::Registry::Get().Sample(            \
          static_cast<double>(ts));                     \
    }                                                   \
  } while (0)

#else  // !CLOVER_OBS_BUILD

// sizeof keeps the operands syntactically checked but unevaluated, so an
// OFF build neither runs instrumentation nor warns about unused values.
#define CLOVER_OBS_COUNT(name_literal, n) \
  do {                                    \
    (void)sizeof(n);                      \
  } while (0)
#define CLOVER_OBS_OBSERVE(name_literal, v) \
  do {                                      \
    (void)sizeof(v);                        \
  } while (0)
#define CLOVER_OBS_SAMPLE(ts) \
  do {                        \
    (void)sizeof(ts);         \
  } while (0)

#endif  // CLOVER_OBS_BUILD
