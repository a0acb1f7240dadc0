// Shared plumbing of the benchmark driver: arguments, the result a run
// reports, timers, and the traced-run span collection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_math.h"
#include "core/harness.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one run reports. `metrics` holds every metric the workload can
// give; perfbench/run.py keeps the ones BENCHMARK.json names.
struct Result {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // correctness checks that did not hold
  std::vector<std::string> notes;     // human-readable context lines

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

// Steady-clock seconds.
double Now();

// User + system CPU seconds of the whole process so far.
double ProcessCpuSeconds();

// ru_maxrss of the process, in MiB.
double PeakRssMb();

// Times a workload's set-up. Set-up is short, so one timing is mostly
// host noise of the moment: the constructor runs it several times back to
// back and RepeatPasses once more before every pass after the first, so
// the median samples the whole run. The state the latest set-up built is
// what the workload goes on to use.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> setup);
  void Run();
  double MedianSeconds() const { return Median(walls_); }

 private:
  std::function<void()> setup_;
  std::vector<double> walls_;
};

// Runs `pass` (which returns its own timed wall seconds) at least once and
// then, after another set-up, again while another pass of median length
// still fits in `seconds` since the first pass began. Returns each pass's
// wall.
std::vector<double> RepeatPasses(double seconds, SetupTimer* setup,
                                 const std::function<double()>& pass);

// Traced runs: enables the program's wall-span tracer with rings of
// `ring_events` events per thread (32 bytes each), which must be large
// enough that no span the run folds is overwritten.
void EnableTracing(std::size_t ring_events = std::size_t{1} << 17);

// Disables the tracer, dumps every wall span recorded so far to
// `<work_dir>/trace_<workload>.json` and reads them back. A span lost to
// ring wraparound is a failed check, not a silent undercount.
std::vector<SpanEvent> CollectSpans(const Args& args, Result* result);

// Wall seconds on the tracer's clock (seconds since tracing was enabled).
double TraceNow();

// Sum of one span name's exclusive seconds in a fold (0 when absent).
double Exclusive(const std::map<std::string, SpanTotals>& fold,
                 const std::string& name);
double Inclusive(const std::map<std::string, SpanTotals>& fold,
                 const std::string& name);

// Sets latency_p50_ms and latency_p99_ms of a batch workload from, per
// pass, the mean wall seconds of the units of work its user waits for (a
// campaign cell, a fleet run), and notes the sample count. The mean, not
// each unit: a pass's units differ by up to 5x, and a percentile over them
// lands on whichever kind of unit sits at that rank, which noise decides.
void SetUnitLatency(std::vector<double> unit_walls_s, Result* result);

// Checks `value` against an expected `center` within `tolerance`.
void CheckNear(double value, double center, double tolerance,
               const std::string& what, Result* result);

// Sets the opt.* counts (invocations, candidates, screened, cache hit
// ratio) from the optimization history of `reports`.
void SetOptMetrics(const std::vector<const clover::core::RunReport*>& reports,
                   Result* result);

// Sets layer.attributed_frac: the share of the root span's wall that its
// named child spans on the same thread cover.
void SetAttributedFraction(const std::map<std::string, SpanTotals>& fold,
                           const std::string& root, Result* result);

// Sets obs.trace_overhead_pct from a traced and an untraced wall.
void SetTraceOverhead(double traced_s, double untraced_s, Result* result);

std::string Fixed(double value, int digits);

// "3 passes, wall s: 1.203 1.187 1.250 (median 1.203)".
std::string DescribePasses(const std::vector<double>& walls);

}  // namespace perfbench
