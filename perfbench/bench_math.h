// The benchmark's own arithmetic, kept free of any program dependency so
// perfbench/selftest.cc can check it in isolation:
//
//   * FoldSpans: wall spans (Chrome trace "B"/"E" pairs per thread) into
//     inclusive and exclusive (self) seconds per span name. A span's self
//     time is its duration minus the part of it its direct children cover.
//   * Percentiles: exact nearest-rank quantiles of a sample, reported with
//     the sample count and how many samples lie beyond each quantile.
//   * Due-time latency: an open-loop request is timed from when it was due
//     to be sent, not from when the generator got round to sending it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// One wall-clock begin/end event of one thread, as the program's tracer
// records it (obs/trace.h). Events of one thread arrive in emission order.
struct SpanEvent {
  std::string name;
  char phase = 'B';  // 'B' begin, 'E' end
  int tid = 0;
  double ts_s = 0.0;
};

struct SpanTotals {
  double inclusive_s = 0.0;
  double exclusive_s = 0.0;
  std::uint64_t count = 0;
};

// Folds events into per-name totals. Only events with ts inside
// [window_start_s, window_end_s] take part; a span must begin and end in
// the window to count. An "E" closes the innermost open span of its
// thread; unmatched events are ignored (the tracer's dump already drops
// them, so this only guards against a truncated window).
inline std::map<std::string, SpanTotals> FoldSpans(
    const std::vector<SpanEvent>& events, double window_start_s = -INFINITY,
    double window_end_s = INFINITY) {
  struct Open {
    const std::string* name;
    double start_s;
    double child_s;
  };
  std::map<int, std::vector<Open>> stacks;
  std::map<std::string, SpanTotals> totals;
  for (const SpanEvent& e : events) {
    if (e.ts_s < window_start_s || e.ts_s > window_end_s) continue;
    std::vector<Open>& stack = stacks[e.tid];
    if (e.phase == 'B') {
      stack.push_back({&e.name, e.ts_s, 0.0});
      continue;
    }
    if (e.phase != 'E' || stack.empty() || *stack.back().name != e.name)
      continue;
    const Open open = stack.back();
    stack.pop_back();
    const double duration = e.ts_s - open.start_s;
    SpanTotals& t = totals[e.name];
    t.inclusive_s += duration;
    t.exclusive_s += duration - open.child_s;
    ++t.count;
    if (!stack.empty()) stack.back().child_s += duration;
  }
  return totals;
}

// Exact quantile by nearest rank: the smallest sample with at least
// q * n samples at or below it. `sorted` must be ascending and non-empty.
inline double NearestRank(const std::vector<double>& sorted, double q) {
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

struct Percentiles {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  // Samples strictly above each quantile: a percentile is trustworthy
  // when at least ten samples lie beyond it.
  std::size_t beyond_p99 = 0;
  std::size_t beyond_p999 = 0;
};

// Sorts `samples` in place and summarizes them. Empty input gives zeros.
inline Percentiles Summarize(std::vector<double>* samples) {
  Percentiles p;
  p.count = samples->size();
  if (samples->empty()) return p;
  std::sort(samples->begin(), samples->end());
  p.p50 = NearestRank(*samples, 0.50);
  p.p99 = NearestRank(*samples, 0.99);
  p.p999 = NearestRank(*samples, 0.999);
  auto beyond = [&](double v) {
    return static_cast<std::size_t>(
        samples->end() - std::upper_bound(samples->begin(), samples->end(), v));
  };
  p.beyond_p99 = beyond(p.p99);
  p.beyond_p999 = beyond(p.p999);
  return p;
}

// Median of a small set of per-pass values (mean of the middle pair for
// an even count). Empty input gives 0.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Wall time at which a request scheduled at virtual time `virtual_ts_s` is
// due, for a replay started at `start_s` that runs `time_scale` wall
// seconds per virtual second.
inline double DueTime(double start_s, double virtual_ts_s, double time_scale) {
  return start_s + virtual_ts_s * time_scale;
}

// Latency of a response received at `received_s` for a request due at
// `due_s`, in milliseconds. Timing from the due time charges a generator
// stall to every request it delayed (no coordinated omission).
inline double DueLatencyMs(double due_s, double received_s) {
  return (received_s - due_s) * 1e3;
}

}  // namespace perfbench
