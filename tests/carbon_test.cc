// Tests for carbon traces, the synthetic generators (Fig. 4/8 shapes), the
// re-optimization monitor, and the carbon accountant.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <vector>

#include "carbon/accountant.h"
#include "carbon/monitor.h"
#include "carbon/trace.h"
#include "carbon/trace_generator.h"
#include "common/check.h"
#include "common/units.h"

namespace clover::carbon {
namespace {

TEST(CarbonTrace, StepLookupAndClamping) {
  CarbonTrace trace("t", 100.0, {10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(trace.At(-5.0), 10.0);
  EXPECT_DOUBLE_EQ(trace.At(0.0), 10.0);
  EXPECT_DOUBLE_EQ(trace.At(99.9), 10.0);
  EXPECT_DOUBLE_EQ(trace.At(100.0), 20.0);
  EXPECT_DOUBLE_EQ(trace.At(250.0), 30.0);
  EXPECT_DOUBLE_EQ(trace.At(1e9), 30.0);
  EXPECT_DOUBLE_EQ(trace.DurationSeconds(), 300.0);
}

TEST(CarbonTrace, RejectsBadInput) {
  EXPECT_THROW(CarbonTrace("t", 100.0, {}), CheckError);
  EXPECT_THROW(CarbonTrace("t", 0.0, {1.0}), CheckError);
  EXPECT_THROW(CarbonTrace("t", 100.0, {1.0, -2.0}), CheckError);
}

TEST(CarbonTrace, MaxSwingWithinSpan) {
  CarbonTrace trace("t", 3600.0, {100, 150, 300, 120, 110});
  // Within one hour: adjacent samples only.
  EXPECT_DOUBLE_EQ(trace.MaxSwingWithin(3600.0), 180.0);  // 300 -> 120
  // Within the whole trace: 300 - 100.
  EXPECT_DOUBLE_EQ(trace.MaxSwingWithin(4 * 3600.0), 200.0);
}

TEST(CarbonTrace, CsvRoundTrip) {
  const std::string path = ::testing::TempDir() + "/trace.csv";
  {
    std::ofstream out(path);
    out << "seconds,ci\n0,100\n300,150\n600,120\n";
  }
  const CarbonTrace trace = CarbonTrace::FromCsv("csv", path);
  EXPECT_DOUBLE_EQ(trace.sample_interval_s(), 300.0);
  EXPECT_DOUBLE_EQ(trace.At(301.0), 150.0);
}

TEST(CarbonTrace, ToCsvFromCsvRoundTripsBitExactly) {
  const std::string path = ::testing::TempDir() + "/roundtrip.csv";
  TraceGeneratorOptions options;
  options.duration_hours = 6.0;
  const CarbonTrace original = GenerateTrace(TraceProfile::kEsoMarch,
                                             options);
  original.ToCsv(path);
  const CarbonTrace reloaded = CarbonTrace::FromCsv("reloaded", path);
  EXPECT_DOUBLE_EQ(reloaded.sample_interval_s(),
                   original.sample_interval_s());
  // to_chars emits shortest-round-trip doubles, so equality is exact.
  EXPECT_EQ(reloaded.values(), original.values());
}

TEST(CarbonTrace, FromCsvReportsOffendingLineNumbers) {
  const std::string path = ::testing::TempDir() + "/malformed.csv";
  {
    std::ofstream out(path);
    out << "seconds,ci\n0,100\n300,oops\n600,120\n";
  }
  try {
    CarbonTrace::FromCsv("bad", path);
    FAIL() << "malformed row should throw";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
        << error.what();
  }

  // Non-uniform sampling also names the line that broke the cadence.
  {
    std::ofstream out(path);
    out << "0,100\n300,150\n600,120\n1000,130\n";
  }
  try {
    CarbonTrace::FromCsv("bad", path);
    FAIL() << "non-uniform sampling should throw";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("line 4"), std::string::npos)
        << error.what();
  }
}

TEST(CarbonTrace, FromCsvHandlesCrlfAndTrailingNewlines) {
  const std::string path = ::testing::TempDir() + "/crlf.csv";
  {
    // CRLF line endings (a spreadsheet export) plus trailing blank lines.
    std::ofstream out(path, std::ios::binary);
    out << "seconds,ci\r\n0,100\r\n300,150\r\n600,120\r\n\r\n\n";
  }
  const CarbonTrace trace = CarbonTrace::FromCsv("crlf", path);
  EXPECT_DOUBLE_EQ(trace.sample_interval_s(), 300.0);
  const std::vector<double> expected = {100.0, 150.0, 120.0};
  EXPECT_EQ(trace.values(), expected);

  // Fields padded with spaces still parse strictly.
  {
    std::ofstream out(path);
    out << "0, 100\n300 ,150\n600,\t120\n";
  }
  EXPECT_EQ(CarbonTrace::FromCsv("padded", path).values(), expected);
}

TEST(CarbonTrace, FromCsvRejectsTrailingGarbageAndExtraColumns) {
  const std::string path = ::testing::TempDir() + "/garbage.csv";
  // std::stod would silently truncate "150abc" to 150; the strict parser
  // must diagnose the row instead.
  {
    std::ofstream out(path);
    out << "0,100\n300,150abc\n600,120\n";
  }
  try {
    CarbonTrace::FromCsv("bad", path);
    FAIL() << "trailing garbage should throw";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos)
        << error.what();
  }

  // A third column is a malformed row, not an ignored one.
  {
    std::ofstream out(path);
    out << "0,100\n300,150,999\n";
  }
  EXPECT_THROW(CarbonTrace::FromCsv("bad", path), CheckError);
}

TEST(CarbonTrace, FromCsvRejectsNonFiniteAndNegativeSamples) {
  const std::string path = ::testing::TempDir() + "/poison.csv";
  // "nan" parses as a double but would poison every carbon total
  // downstream; the loader must reject it at the offending line. (The
  // fault-injection layer repairs NaN dropouts explicitly —
  // sim::RepairTraceValues — before a trace is constructed.)
  {
    std::ofstream out(path);
    out << "0,100\n300,nan\n600,120\n";
  }
  try {
    CarbonTrace::FromCsv("bad", path);
    FAIL() << "nan sample should throw";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos)
        << error.what();
  }
  {
    std::ofstream out(path);
    out << "0,100\n300,inf\n";
  }
  EXPECT_THROW(CarbonTrace::FromCsv("bad", path), CheckError);
  {
    std::ofstream out(path);
    out << "0,100\n300,-5\n600,120\n";
  }
  try {
    CarbonTrace::FromCsv("bad", path);
    FAIL() << "negative sample should throw";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos)
        << error.what();
  }
}

TEST(CarbonTrace, FromCsvRejectsSecondHeaderAndTooFewSamples) {
  const std::string path = ::testing::TempDir() + "/short.csv";
  // Only one non-numeric line (the header) is tolerated; a second one mid-
  // file is a malformed row with a line number.
  {
    std::ofstream out(path);
    out << "seconds,ci\n0,100\nseconds,ci\n300,150\n";
  }
  try {
    CarbonTrace::FromCsv("bad", path);
    FAIL() << "second header should throw";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
        << error.what();
  }

  // One sample cannot define an interval.
  {
    std::ofstream out(path);
    out << "seconds,ci\n0,100\n";
  }
  EXPECT_THROW(CarbonTrace::FromCsv("bad", path), CheckError);
}

TEST(CarbonTrace, ConstructorRejectsNonFiniteValues) {
  EXPECT_THROW(CarbonTrace("t", 100.0,
                           {1.0, std::numeric_limits<double>::quiet_NaN()}),
               CheckError);
  EXPECT_THROW(CarbonTrace("t", 100.0,
                           {1.0, std::numeric_limits<double>::infinity()}),
               CheckError);
}

class ProfileSweep : public ::testing::TestWithParam<TraceProfile> {};

TEST_P(ProfileSweep, FortyEightHourEvaluationShape) {
  TraceGeneratorOptions options;
  const CarbonTrace trace = GenerateTrace(GetParam(), options);
  // 48h at 5-minute samples.
  EXPECT_EQ(trace.values().size(), 48u * 12u);
  const auto stats = trace.Summary();
  // Ranges per paper Figs. 4/8: everything lives in [45, 360] gCO2/kWh.
  EXPECT_GE(stats.min(), 45.0);
  EXPECT_LE(stats.max(), 360.0);
  EXPECT_GT(stats.mean(), 120.0);
  EXPECT_LT(stats.mean(), 260.0);
}

TEST_P(ProfileSweep, Deterministic) {
  TraceGeneratorOptions options;
  const CarbonTrace a = GenerateTrace(GetParam(), options);
  const CarbonTrace b = GenerateTrace(GetParam(), options);
  EXPECT_EQ(a.values(), b.values());
}

TEST_P(ProfileSweep, SpanShorterThanOneSampleHasOneSample) {
  // 0.02 h is 72 s, under one 300 s sample: the trace still has an
  // intensity, the first sample of any longer trace with the same seed.
  TraceGeneratorOptions short_options;
  short_options.duration_hours = 0.02;
  TraceGeneratorOptions long_options;
  long_options.duration_hours = 6.0;
  const CarbonTrace short_trace = GenerateTrace(GetParam(), short_options);
  const CarbonTrace long_trace = GenerateTrace(GetParam(), long_options);
  ASSERT_EQ(short_trace.values().size(), 1u);
  EXPECT_EQ(short_trace.values()[0], long_trace.values()[0]);
}

TEST_P(ProfileSweep, SeedChangesWeather) {
  TraceGeneratorOptions a_options;
  TraceGeneratorOptions b_options;
  b_options.seed = a_options.seed + 1;
  const CarbonTrace a = GenerateTrace(GetParam(), a_options);
  const CarbonTrace b = GenerateTrace(GetParam(), b_options);
  EXPECT_NE(a.values(), b.values());
}

TEST_P(ProfileSweep, SignificantIntradayVariation) {
  // Paper Sec. 3: "carbon intensity can vary by more than 200 gCO2/kWh
  // within half a day" — require at least 100 within 12h for every profile
  // so the controller has something to react to.
  TraceGeneratorOptions options;
  options.duration_hours = 14 * 24;
  const CarbonTrace trace = GenerateTrace(GetParam(), options);
  EXPECT_GT(trace.MaxSwingWithin(12 * 3600.0), 100.0);
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfileSweep,
                         ::testing::Values(TraceProfile::kCisoMarch,
                                           TraceProfile::kCisoSeptember,
                                           TraceProfile::kEsoMarch));

TEST(TraceGenerator, CisoMarchHasSolarDuckCurve) {
  TraceGeneratorOptions options;
  options.duration_hours = 14 * 24;
  const CarbonTrace trace =
      GenerateTrace(TraceProfile::kCisoMarch, options);
  // Average by hour-of-day: midday (12-15h) must sit well below the
  // evening ramp (19-21h).
  double midday = 0.0, evening = 0.0;
  int midday_n = 0, evening_n = 0;
  for (std::size_t i = 0; i < trace.values().size(); ++i) {
    const double hour = std::fmod(i * trace.sample_interval_s() / 3600.0,
                                  24.0);
    if (hour >= 12.0 && hour < 15.0) {
      midday += trace.values()[i];
      ++midday_n;
    } else if (hour >= 19.0 && hour < 21.0) {
      evening += trace.values()[i];
      ++evening_n;
    }
  }
  EXPECT_LT(midday / midday_n + 50.0, evening / evening_n);
}

TEST(RegionPresets, NamedTableLookupAndShapes) {
  ASSERT_GE(NamedRegionPresets().size(), 4u);
  const RegionPreset* west = FindRegionPreset("us-west");
  const RegionPreset* antipode = FindRegionPreset("ap-northeast");
  ASSERT_NE(west, nullptr);
  ASSERT_NE(antipode, nullptr);
  EXPECT_EQ(FindRegionPreset("atlantis"), nullptr);
  EXPECT_EQ(west->profile, antipode->profile);  // same grid shape...
  EXPECT_DOUBLE_EQ(antipode->phase_shift_hours - west->phase_shift_hours,
                   12.0);  // ...half a day apart

  TraceGeneratorOptions options;
  const CarbonTrace a = GenerateRegionTrace(*west, options);
  const CarbonTrace b = GenerateRegionTrace(*west, options);
  EXPECT_EQ(a.values(), b.values());  // deterministic per (preset, seed)
  EXPECT_EQ(a.name(), "us-west");
}

TEST(RegionPresets, TwelveHourPhaseShiftAntiCorrelatesDiurnalCycle) {
  // Compare hour-of-day means of the two presets' deterministic harmonics:
  // us-west dips at midday where ap-northeast is high, and vice versa.
  // Amplify determinism by averaging 14 days.
  TraceGeneratorOptions options;
  options.duration_hours = 14 * 24;
  const CarbonTrace west =
      GenerateRegionTrace(*FindRegionPreset("us-west"), options);
  const CarbonTrace antipode =
      GenerateRegionTrace(*FindRegionPreset("ap-northeast"), options);

  auto hour_mean = [](const CarbonTrace& trace, double from_h, double to_h) {
    double sum = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < trace.values().size(); ++i) {
      const double hour =
          std::fmod(i * trace.sample_interval_s() / 3600.0, 24.0);
      if (hour >= from_h && hour < to_h) {
        sum += trace.values()[i];
        ++n;
      }
    }
    return sum / n;
  };
  // Midday (us-west's solar dip) vs the same wall-clock hours on the
  // antipode (night there: no dip).
  EXPECT_LT(hour_mean(west, 12.0, 15.0) + 40.0,
            hour_mean(antipode, 12.0, 15.0));
  // And the mirror image half a day later.
  EXPECT_LT(hour_mean(antipode, 0.0, 3.0) + 40.0,
            hour_mean(west, 0.0, 3.0));
}

TEST(Monitor, TriggersBeforeFirstAcknowledgement) {
  CarbonTrace trace("t", 300.0, {100.0, 100.0});
  CarbonMonitor monitor(&trace, 0.05);
  EXPECT_TRUE(monitor.ShouldReoptimize(0.0));
}

TEST(Monitor, FivePercentRelativeTrigger) {
  CarbonTrace trace("t", 100.0, {100.0, 104.0, 106.0, 94.0});
  CarbonMonitor monitor(&trace, 0.05);
  monitor.AcknowledgeOptimization(0.0);  // reference = 100
  EXPECT_FALSE(monitor.ShouldReoptimize(100.0));  // 104: +4% < 5%
  EXPECT_TRUE(monitor.ShouldReoptimize(200.0));   // 106: +6%
  EXPECT_TRUE(monitor.ShouldReoptimize(300.0));   // 94: -6%
  monitor.AcknowledgeOptimization(300.0);         // reference = 94
  EXPECT_FALSE(monitor.ShouldReoptimize(300.0));
}

TEST(Accountant, CarbonEqualsEnergyTimesIntensityTimesPue) {
  CarbonTrace trace("t", 3600.0, {200.0, 400.0});
  CarbonAccountant accountant(&trace, 1.5);
  // 1 kWh in the first hour at 200 g/kWh and PUE 1.5 -> 300 g.
  const double g1 = accountant.AccountWindow(0.0, KwhToJoules(1.0));
  EXPECT_NEAR(g1, 300.0, 1e-9);
  // Same energy in the second hour at double intensity -> double carbon.
  const double g2 = accountant.AccountWindow(3600.0, KwhToJoules(1.0));
  EXPECT_NEAR(g2, 600.0, 1e-9);
  EXPECT_NEAR(accountant.total_grams(), 900.0, 1e-9);
  EXPECT_NEAR(accountant.total_it_joules(), KwhToJoules(2.0), 1e-6);
}

TEST(Accountant, RequiresSanePue) {
  CarbonTrace trace("t", 3600.0, {200.0});
  EXPECT_THROW(CarbonAccountant(&trace, 0.9), CheckError);
}

}  // namespace
}  // namespace clover::carbon
