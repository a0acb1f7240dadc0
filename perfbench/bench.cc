#include "bench.h"

#include <sys/resource.h>

#include <cctype>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

SetupTimer::SetupTimer(std::function<void()> setup)
    : setup_(std::move(setup)) {
  constexpr int kLeadReps = 7;
  for (int i = 0; i < kLeadReps; ++i) Run();
}

void SetupTimer::Run() {
  const double start = Now();
  setup_();
  walls_.push_back(Now() - start);
}

std::vector<double> RepeatPasses(double seconds, SetupTimer* setup,
                                 const std::function<double()>& pass) {
  std::vector<double> walls;
  const double start = Now();
  for (;;) {
    walls.push_back(pass());
    if (Now() - start + Median(walls) > seconds) return walls;
    setup->Run();
  }
}

void EnableTracing(std::size_t ring_events) {
  clover::obs::Tracer::Get().Enable(ring_events);
}

double TraceNow() { return clover::obs::Tracer::Get().WallNow(); }

namespace {

// A reader for the tracer's Chrome trace dump that keeps only what the
// fold needs. The dump of a live-server run holds about a million events,
// which a document tree would hold many times over in memory; this scans
// the flat event objects of "traceEvents" in one pass instead.
class TraceScanner {
 public:
  explicit TraceScanner(std::string text) : text_(std::move(text)) {}

  std::vector<SpanEvent> WallSpans() {
    std::vector<SpanEvent> events;
    pos_ = text_.find("\"traceEvents\"");
    if (pos_ == std::string::npos) Fail("no traceEvents");
    pos_ = text_.find('[', pos_);
    if (pos_ == std::string::npos) Fail("no traceEvents array");
    ++pos_;
    for (;;) {
      SkipSpace();
      if (Peek() == ']') break;
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('{');
      std::string name, phase;
      double pid = -1, tid = 0, ts = 0;
      for (;;) {
        SkipSpace();
        if (Peek() == '}') {
          ++pos_;
          break;
        }
        if (Peek() == ',') {
          ++pos_;
          continue;
        }
        const std::string key = String();
        SkipSpace();
        Expect(':');
        SkipSpace();
        if (key == "name") name = String();
        else if (key == "ph") phase = String();
        else if (key == "pid") pid = Number();
        else if (key == "tid") tid = Number();
        else if (key == "ts") ts = Number();
        else SkipValue();
      }
      if (pid == 0 && (phase == "B" || phase == "E"))
        events.push_back({std::move(name), phase[0], static_cast<int>(tid),
                          ts * 1e-6});
    }
    return events;
  }

 private:
  [[noreturn]] void Fail(const char* what) const {
    throw std::runtime_error(std::string("trace dump: ") + what + " at byte " +
                             std::to_string(pos_));
  }
  char Peek() const {
    if (pos_ >= text_.size()) Fail("unexpected end");
    return text_[pos_];
  }
  void Expect(char c) {
    if (Peek() != c) Fail("unexpected character");
    ++pos_;
  }
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  std::string String() {
    Expect('"');
    std::string out;
    while (Peek() != '"') {
      if (text_[pos_] == '\\') ++pos_;  // span names carry no escapes that matter
      out.push_back(text_[pos_++]);
    }
    ++pos_;
    return out;
  }
  double Number() {
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) Fail("bad number");
    pos_ += static_cast<std::size_t>(end - begin);
    return value;
  }
  void SkipValue() {
    if (Peek() == '"') {
      String();
      return;
    }
    if (Peek() != '{' && Peek() != '[') {
      Number();
      return;
    }
    int depth = 0;
    do {
      const char c = Peek();
      if (c == '"') {
        String();
        continue;
      }
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') --depth;
      ++pos_;
    } while (depth > 0);
  }

  std::string text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<SpanEvent> CollectSpans(const Args& args, Result* result) {
  clover::obs::Tracer& tracer = clover::obs::Tracer::Get();
  tracer.Disable();
  const std::string path = args.work_dir + "/trace_" + args.workload + ".json";
  const clover::obs::Tracer::DumpStats stats = tracer.WriteChromeTrace(path);
  result->Check(stats.written > 0, "trace dump wrote no events");
  result->Check(stats.dropped == 0,
                "trace ring wrapped: " + std::to_string(stats.dropped) +
                    " spans lost");
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  return TraceScanner(text.str()).WallSpans();
}

double Exclusive(const std::map<std::string, SpanTotals>& fold,
                 const std::string& name) {
  const auto it = fold.find(name);
  return it == fold.end() ? 0.0 : it->second.exclusive_s;
}

double Inclusive(const std::map<std::string, SpanTotals>& fold,
                 const std::string& name) {
  const auto it = fold.find(name);
  return it == fold.end() ? 0.0 : it->second.inclusive_s;
}

void SetUnitLatency(std::vector<double> unit_walls_s, Result* result) {
  for (double& wall : unit_walls_s) wall *= 1e3;
  const Percentiles p = Summarize(&unit_walls_s);
  result->Set("latency_p50_ms", p.p50, "ms");
  result->Set("latency_p99_ms", p.p99, "ms");
  result->Note("unit latency over " + std::to_string(p.count) +
               " passes: p50 " + Fixed(p.p50, 1) + " ms, p99 " +
               Fixed(p.p99, 1) + " ms");
}

void CheckNear(double value, double center, double tolerance,
               const std::string& what, Result* result) {
  result->Check(std::abs(value - center) <= tolerance,
                what + " = " + Fixed(value, 4) + ", expected " +
                    Fixed(center, 4) + " +- " + Fixed(tolerance, 4));
}

void SetOptMetrics(const std::vector<const clover::core::RunReport*>& reports,
                   Result* result) {
  double invocations = 0, candidates = 0, screened = 0, hits = 0;
  for (const clover::core::RunReport* report : reports) {
    for (const clover::core::OptimizationRun& run : report->optimizations) {
      ++invocations;
      candidates += static_cast<double>(run.search.evaluations.size());
      screened += run.search.screened;
      hits += run.search.cache_hits;
    }
  }
  result->Set("opt.invocations", invocations, "count");
  result->Set("opt.candidates", candidates, "count");
  result->Set("opt.screened", screened, "count");
  result->Set("opt.cache_hit_ratio", candidates > 0 ? hits / candidates : 0.0,
              "fraction");
}

void SetAttributedFraction(const std::map<std::string, SpanTotals>& fold,
                           const std::string& root, Result* result) {
  const double root_s = Inclusive(fold, root);
  result->Set("layer.attributed_frac",
              root_s > 0 ? 1.0 - Exclusive(fold, root) / root_s : 0.0,
              "fraction");
}

void SetTraceOverhead(double traced_s, double untraced_s, Result* result) {
  result->Set("obs.trace_overhead_pct",
              untraced_s > 0.0 ? (traced_s - untraced_s) / untraced_s * 100.0
                               : 0.0,
              "%");
}

std::string Fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

std::string DescribePasses(const std::vector<double>& walls) {
  std::string text = std::to_string(walls.size()) + " passes, wall s:";
  for (double wall : walls) text += " " + Fixed(wall, 3);
  return text + " (median " + Fixed(Median(walls), 3) + ")";
}

}  // namespace perfbench
