// Tests for the observability layer (src/obs): sharded metric folds vs a
// serial reference at several writer-thread counts, snapshot determinism
// across thread counts, tracer ring wraparound, a seeded property test
// that dumped traces are always well-formed (matched B/E pairs, monotone
// timestamps per lane) no matter how spans nest or wrap, and counter
// ownership: each optimizer counter is counted once, by the search that
// owns the event.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "carbon/trace.h"
#include "common/json.h"
#include "common/quantile.h"
#include "common/thread_pool.h"
#include "core/harness.h"
#include "graph/neighbors.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/annealing.h"
#include "opt/random_search.h"
#include "opt/surrogate.h"
#include "serving/deployment.h"
#include "sim/arrivals.h"
#include "testing/proptest.h"

namespace clover::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::Get().ResetForTest();
    Tracer::Get().ResetForTest();
    SetEnabled(true);
  }
  void TearDown() override {
    SetEnabled(false);
    Tracer::Get().ResetForTest();
    Registry::Get().ResetForTest();
  }
};

// Deterministic per-item workload, independent of which thread runs it.
std::uint64_t ItemWeight(std::size_t i) { return i % 7 + 1; }
double ItemValue(std::size_t i) {
  return 0.1 + static_cast<double>(i % 200) * 1.7;
}

TEST_F(ObsTest, FoldEqualsSerialReferenceAtSeveralThreadCounts) {
  constexpr std::size_t kItems = 5000;

  std::uint64_t expected_count = 0;
  LogHistogramQuantile expected_hist;
  for (std::size_t i = 0; i < kItems; ++i) {
    expected_count += ItemWeight(i);
    expected_hist.Add(ItemValue(i));
  }

  for (const int threads : {1, 2, 8}) {
    Registry::Get().ResetForTest();
    Counter* counter = Registry::Get().GetCounter("test.count");
    Histogram* hist = Registry::Get().GetHistogram("test.hist");
    ThreadPool pool(threads);
    pool.ParallelFor(kItems, [&](int /*slot*/, std::size_t i) {
      counter->Add(ItemWeight(i));
      hist->Observe(ItemValue(i));
    });

    EXPECT_EQ(counter->Fold(), expected_count) << threads << " threads";
    EXPECT_EQ(hist->FoldCount(), kItems) << threads << " threads";
    // The fold rebuilds the serial histogram bit for bit: same bins, same
    // quantiles, regardless of which shard each observation landed in.
    const LogHistogramQuantile folded = hist->Fold();
    for (const double q : {0.5, 0.95, 0.99}) {
      EXPECT_EQ(folded.Quantile(q), expected_hist.Quantile(q))
          << threads << " threads, q=" << q;
    }
  }
}

TEST_F(ObsTest, GaugeFoldIsLastWriteForSingleWriter) {
  Gauge* gauge = Registry::Get().GetGauge("test.gauge");
  gauge->Set(1.5);
  gauge->Set(-3.25);
  gauge->Set(42.0);
  EXPECT_EQ(gauge->Fold(), 42.0);
}

// The snapshot rows a run records must be a function of the seeded work,
// not of the thread count — the property that lets instrumented benches
// keep their bit-identity gates.
TEST_F(ObsTest, SnapshotRowsAreIdenticalAcrossThreadCounts) {
  constexpr std::size_t kItems = 512;
  constexpr int kRounds = 5;

  using Rows = std::vector<std::tuple<std::string, int, std::uint64_t,
                                      double, double>>;
  auto run = [&](int threads) {
    Registry::Get().ResetForTest();
    Counter* counter = Registry::Get().GetCounter("snap.count");
    Histogram* hist = Registry::Get().GetHistogram("snap.hist");
    ThreadPool pool(threads);
    for (int round = 0; round < kRounds; ++round) {
      pool.ParallelFor(kItems, [&](int /*slot*/, std::size_t i) {
        counter->Add(ItemWeight(i));
        hist->Observe(ItemValue(i + static_cast<std::size_t>(round)));
      });
      // ParallelFor joined: a barrier, the only place Sample is allowed.
      Registry::Get().Sample(static_cast<double>(round));
    }
    Rows rows;
    for (const Snapshot& snap : Registry::Get().Snapshots()) {
      for (const SnapshotRow& row : snap.rows) {
        // Other tests in this process may have registered metrics of their
        // own (registrations persist across ResetForTest); compare only
        // this test's rows.
        if (row.name.rfind("snap.", 0) != 0) continue;
        rows.emplace_back(row.name, static_cast<int>(row.kind), row.count,
                          row.p50, row.p99);
      }
    }
    return rows;
  };

  const Rows serial = run(1);
  EXPECT_EQ(serial.size(), static_cast<std::size_t>(kRounds) * 2);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

TEST_F(ObsTest, DisabledMacrosRecordNothing) {
  SetEnabled(false);
  CLOVER_OBS_COUNT("guard.count", 5);
  CLOVER_OBS_OBSERVE("guard.hist", 1.0);
  SetEnabled(true);
  // The names were never registered (ResetForTest zeroes values but keeps
  // registrations from earlier tests in this process, so check by name).
  for (const SnapshotRow& row : Registry::Get().Fold(0.0).rows) {
    EXPECT_NE(row.name, "guard.count");
    EXPECT_NE(row.name, "guard.hist");
  }
}

TEST_F(ObsTest, SnapshotLogIsBoundedAndReportsDrops) {
  Registry::Get().GetCounter("bound.count")->Add(1);
  const std::size_t extra = 10;
  for (std::size_t i = 0; i < Registry::kMaxSnapshots + extra; ++i)
    Registry::Get().Sample(static_cast<double>(i));
  EXPECT_EQ(Registry::Get().Snapshots().size(), Registry::kMaxSnapshots);
  EXPECT_EQ(Registry::Get().SnapshotsDropped(), extra);
  // The survivors are the newest (flight-recorder semantics).
  EXPECT_EQ(Registry::Get().Snapshots().front().ts_s,
            static_cast<double>(extra));
}

// Shared verifier: parse a dumped trace and check the invariants the
// validator script enforces in CI (scripts/validate_trace_json.py).
std::optional<std::string> CheckTraceWellFormed(const std::string& path) {
  const JsonValue doc = ParseJsonFile(path);
  const JsonValue& events = doc.At("traceEvents");
  std::map<std::pair<std::int64_t, std::int64_t>, double> last_ts;
  std::map<std::pair<std::int64_t, std::int64_t>, int> open_b;
  for (const JsonValue& e : events.AsArray()) {
    const std::string& phase = e.At("ph").AsString();
    if (e.At("name").AsString().empty()) return "empty event name";
    if (phase == "M") continue;
    const std::pair<std::int64_t, std::int64_t> lane = {
        e.At("pid").AsInt(), e.At("tid").AsInt()};
    const double ts = e.At("ts").AsNumber();
    const auto it = last_ts.find(lane);
    if (it != last_ts.end() && ts < it->second) {
      std::ostringstream os;
      os << "non-monotone ts on pid=" << lane.first
         << " tid=" << lane.second << ": " << ts << " < " << it->second;
      return os.str();
    }
    last_ts[lane] = ts;
    if (phase == "B") {
      ++open_b[lane];
    } else if (phase == "E") {
      if (--open_b[lane] < 0) return "E without matching B";
    } else if (phase == "X") {
      if (e.At("dur").AsNumber() < 0.0) return "negative X dur";
    } else if (phase != "I") {
      return "unexpected phase " + phase;
    }
  }
  for (const auto& [lane, open] : open_b) {
    if (open != 0) return "unclosed B events in dump";
  }
  return std::nullopt;
}

TEST_F(ObsTest, TracerRingWraparoundDropsOldestAndStaysWellFormed) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable(/*ring_capacity=*/16);
  constexpr std::size_t kEmitted = 100;
  for (std::size_t i = 0; i < kEmitted; ++i) tracer.InstantWall("tick");
  // An unclosed span on top of the wrapped ring: the sanitizer must drop
  // the trailing B rather than emit an unmatched pair.
  tracer.Emit("open", 'B', TraceClock::kWall, tracer.WallNow());

  const std::string path =
      ::testing::TempDir() + "/obs_wrap_trace.json";
  const Tracer::DumpStats stats = tracer.WriteChromeTrace(path);
  EXPECT_EQ(stats.dropped, kEmitted + 1 - 16);
  EXPECT_EQ(stats.written, 15u);  // 16 kept minus the sanitized open B
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_EQ(CheckTraceWellFormed(path), std::nullopt);
}

TEST_F(ObsTest, VirtualTimelineRestartSplitsOntoFreshLane) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  // Two virtual passes over [0, 10]: a run and its twin. The regression at
  // the restart must land on a synthetic tid, keeping every lane monotone.
  for (int pass = 0; pass < 2; ++pass) {
    tracer.CompleteVirtual("epoch", 0.0, 5.0);
    tracer.CompleteVirtual("epoch", 5.0, 10.0);
  }
  const std::string path =
      ::testing::TempDir() + "/obs_virtual_trace.json";
  const Tracer::DumpStats stats = tracer.WriteChromeTrace(path);
  EXPECT_EQ(stats.written, 4u);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(CheckTraceWellFormed(path), std::nullopt);
}

// Property: whatever deterministic mix of nested spans, instants and
// virtual intervals a thread emits — including rings far too small for the
// event count — the dumped trace is well-formed.
struct SpanScript {
  std::size_t ring_capacity = 8;
  // op % 3 == 0: balanced span of depth (op % 4 + 1); 1: wall instant;
  // 2: virtual interval (restarting timeline every 5th).
  std::vector<int> ops;
};

void RunScript(const SpanScript& script) {
  Tracer& tracer = Tracer::Get();
  tracer.ResetForTest();
  tracer.Enable(script.ring_capacity);
  int virtual_cursor = 0;
  for (const int op : script.ops) {
    switch (op % 3) {
      case 0: {
        const int depth = op % 4 + 1;
        std::vector<std::unique_ptr<ScopedSpan>> nest;
        for (int d = 0; d < depth; ++d)
          nest.push_back(std::make_unique<ScopedSpan>("nested"));
        break;  // nest unwinds: E events in LIFO order
      }
      case 1:
        tracer.InstantWall("mark");
        break;
      default: {
        const double t0 = static_cast<double>(virtual_cursor % 5);
        tracer.CompleteVirtual("vspan", t0, t0 + 0.5);
        ++virtual_cursor;
        break;
      }
    }
  }
}

TEST_F(ObsTest, PropSpanNestingAlwaysDumpsWellFormed) {
  using clover::testing::prop::Check;
  using clover::testing::prop::Config;
  using clover::testing::prop::Domain;
  using clover::testing::prop::Gen;

  Domain<SpanScript> domain;
  domain.generate = [](Gen& gen) {
    SpanScript script;
    script.ring_capacity =
        static_cast<std::size_t>(gen.IntInRange(8, 64));
    const std::int64_t n = gen.IntInRange(0, 200);
    script.ops.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i)
      script.ops.push_back(static_cast<int>(gen.IntInRange(0, 11)));
    return script;
  };
  domain.shrink = [](const SpanScript& script) {
    std::vector<SpanScript> simpler;
    if (!script.ops.empty()) {
      SpanScript half = script;
      half.ops.resize(script.ops.size() / 2);
      simpler.push_back(std::move(half));
      SpanScript tail = script;
      tail.ops.erase(tail.ops.begin());
      simpler.push_back(std::move(tail));
    }
    return simpler;
  };
  domain.describe = [](const SpanScript& script) {
    std::ostringstream os;
    os << "capacity=" << script.ring_capacity << " ops=[";
    for (const int op : script.ops) os << op << ",";
    os << "]";
    return os.str();
  };

  Config config;
  config.name = "trace-dump-well-formed";
  config.seed = 11;
  config.iterations = 40;
  const std::string path =
      ::testing::TempDir() + "/obs_prop_trace.json";
  const auto outcome = Check<SpanScript>(
      config, domain,
      [&](const SpanScript& script) -> std::optional<std::string> {
        RunScript(script);
        Tracer::Get().WriteChromeTrace(path);
        return CheckTraceWellFormed(path);
      });
  EXPECT_TRUE(outcome.passed) << outcome.report;
}

std::uint64_t CounterValue(const char* name) {
  return Registry::Get().GetCounter(name)->Fold();
}

// A search driven directly — no controller around it, as in the bench
// rows — still counts what it screened and evaluated.
TEST_F(ObsTest, DirectScreenedSearchesCountScreenedAndEvaluated) {
  const models::ModelZoo& zoo = models::DefaultZoo();
  const models::Application app = models::Application::kClassification;
  const int gpus = 4;
  opt::SurrogateEvaluator::Options surrogate_options;
  surrogate_options.arrival_rate_qps = sim::SizeArrivalRate(zoo, app, gpus);
  opt::SurrogateEvaluator surrogate(&zoo, gpus, surrogate_options);
  const graph::ConfigGraph base = graph::ConfigGraph::FromDeployment(
      serving::MakeBase(app, gpus), zoo);
  opt::ObjectiveParams params;
  params.a_base = 80.0;
  params.c_base_g = 1.0;
  params.l_tail_ms = 1e9;

  graph::GraphMapper mapper(&zoo, gpus);
  opt::RandomSearch::Options rs;
  rs.max_evaluations = 12;
  rs.no_improve_limit = 1 << 30;
  rs.screen_factor = 4;
  opt::RandomSearch random_search(&surrogate, &mapper, rs, 7);
  random_search.SetSurrogate(&surrogate);
  const opt::SearchResult random = random_search.Run(base, params, 250.0);
  ASSERT_GT(random.screened, 0);
  EXPECT_EQ(CounterValue("opt.screened"),
            static_cast<std::uint64_t>(random.screened));
  EXPECT_EQ(CounterValue("opt.evaluated"), random.evaluations.size());

  Registry::Get().ResetForTest();
  graph::NeighborSampler sampler(&mapper, 7);
  opt::SimulatedAnnealing::Options sa;
  sa.max_evaluations = 12;
  sa.no_improve_limit = 1 << 30;
  sa.screen_factor = 4;
  opt::SimulatedAnnealing annealer(&surrogate, &sampler, sa, 7);
  annealer.SetSurrogate(&surrogate);
  const opt::SearchResult annealed = annealer.Run(base, params, 250.0);
  ASSERT_GT(annealed.screened, 0);
  EXPECT_EQ(CounterValue("opt.screened"),
            static_cast<std::uint64_t>(annealed.screened));
  EXPECT_EQ(CounterValue("opt.evaluated"), annealed.evaluations.size());
}

// Driven by the controller, the same counters still count each event once:
// they equal the sums over the run's optimization history.
TEST_F(ObsTest, ControllerStepsDoNotDoubleCountSearchCounters) {
  const carbon::CarbonTrace trace("obs-step", 300.0, [] {
    std::vector<double> values(24, 150.0);
    for (std::size_t i = 6; i < values.size(); ++i) values[i] = 320.0;
    return values;
  }());
  core::ExperimentConfig config;
  config.scheme = core::Scheme::kClover;
  config.trace = &trace;
  config.duration_hours = 1.0;
  config.num_gpus = config.sizing_gpus = 2;
  config.seed = 3;
  config.controller.screen_factor = 4;
  core::ExperimentHarness harness(&models::DefaultZoo());
  const core::RunReport report = harness.Run(config);

  ASSERT_FALSE(report.optimizations.empty());
  std::uint64_t screened = 0, evaluated = 0;
  for (const core::OptimizationRun& run : report.optimizations) {
    screened += static_cast<std::uint64_t>(run.search.screened);
    evaluated += run.search.evaluations.size();
  }
  EXPECT_GT(screened, 0u);
  EXPECT_EQ(CounterValue("opt.screened"), screened);
  EXPECT_EQ(CounterValue("opt.evaluated"), evaluated);
  EXPECT_EQ(CounterValue("opt.invocations"), report.optimizations.size());
}

}  // namespace
}  // namespace clover::obs
