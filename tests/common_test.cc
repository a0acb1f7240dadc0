// Unit tests for the common utilities: RNG streams, quantile estimators,
// running stats, units, tables and check macros.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "common/csv.h"
#include "common/quantile.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace clover {
namespace {

TEST(Check, ThrowsWithContext) {
  EXPECT_THROW(CLOVER_CHECK(1 == 2), CheckError);
  try {
    CLOVER_CHECK_MSG(false, "custom detail " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
  }
}

TEST(Rng, SameSeedSameStreamIsDeterministic) {
  RngStream a(123, "stream");
  RngStream b(123, "stream");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentStreamsDiverge) {
  RngStream a(123, "alpha");
  RngStream b(123, "beta");
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.Next() == b.Next()) ++equal;
  EXPECT_LE(equal, 1);
}

TEST(Rng, NextDoubleInUnitInterval) {
  RngStream rng(7, "doubles");
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BoundedStaysInBounds) {
  RngStream rng(7, "bounded");
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 19ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBounded(bound), bound);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  RngStream rng(11, "expo");
  const double rate = 4.0;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Rng, GaussianMomentsMatch) {
  RngStream rng(13, "gauss");
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(ExactQuantile, NearestRankDefinition) {
  ExactQuantile q;
  for (int i = 1; i <= 100; ++i) q.Add(i);
  EXPECT_DOUBLE_EQ(q.Quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(q.Quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(q.Quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(q.Quantile(0.0), 1.0);
}

TEST(LogHistogramQuantile, TracksExactWithinBinResolution) {
  LogHistogramQuantile hist;
  ExactQuantile exact;
  RngStream rng(29, "loghist");
  for (int i = 0; i < 100000; ++i) {
    const double x = std::exp(rng.NextGaussian() * 1.5 + 3.0);  // ~20ms scale
    hist.Add(x);
    exact.Add(x);
  }
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const double truth = exact.Quantile(q);
    EXPECT_NEAR(hist.Quantile(q), truth, 0.03 * truth) << "q=" << q;
  }
}

TEST(LogHistogramQuantile, RobustToNonstationaryPrefix) {
  // A pathological heavy prefix (reconfiguration storm) followed by a long
  // steady stream: the quantile must reflect the stream, not the prefix.
  // (This is the failure mode that rules out P² for run-level latencies.)
  LogHistogramQuantile hist;
  for (int i = 0; i < 1000; ++i) hist.Add(5000.0);   // 1% storm
  for (int i = 0; i < 99000; ++i) hist.Add(30.0);    // steady state
  EXPECT_NEAR(hist.Quantile(0.95), 30.0, 2.0);
  EXPECT_GT(hist.Quantile(0.995), 1000.0);
}

TEST(LogHistogramQuantile, ClampsAndResets) {
  LogHistogramQuantile hist;
  hist.Add(0.0);    // below range -> bottom bin
  hist.Add(1e12);   // above range -> top bin
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_LE(hist.Quantile(0.25), LogHistogramQuantile::kMinValue * 1.05);
  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.95), 0.0);
}

TEST(RunningStats, WelfordMatchesClosedForm) {
  RunningStats stats;
  for (int i = 1; i <= 10; ++i) stats.Add(i);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.5);
  EXPECT_NEAR(stats.variance(), 8.25, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 10.0);
}

TEST(Units, RoundTrips) {
  EXPECT_DOUBLE_EQ(JoulesToKwh(KwhToJoules(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(KwhToJoules(1.0), 3.6e6);
  EXPECT_DOUBLE_EQ(SecondsToMs(MsToSeconds(123.0)), 123.0);
  EXPECT_DOUBLE_EQ(HoursToSeconds(1.0), 3600.0);
}

TEST(Units, CarbonGramsAppliesPue) {
  // 1 kWh at 200 g/kWh with PUE 1.5 -> 300 g.
  EXPECT_NEAR(CarbonGrams(KwhToJoules(1.0), 200.0, 1.5), 300.0, 1e-9);
}

TEST(TextTable, AlignsAndValidatesArity) {
  TextTable table({"a", "bb"});
  table.AddRow({"1", "2"});
  EXPECT_THROW(table.AddRow({"only-one"}), CheckError);
  const std::string out = table.ToString();
  EXPECT_NE(out.find("bb"), std::string::npos);
  EXPECT_NE(out.find("1"), std::string::npos);
}

TEST(Csv, EscapesAndWrites) {
  const std::string path = ::testing::TempDir() + "/clover_csv_test.csv";
  {
    CsvWriter csv(path, {"x", "label"});
    csv.WriteRow(std::vector<std::string>{"1", "plain"});
    csv.WriteRow(std::vector<std::string>{"2", "with,comma"});
  }
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(all.find("x,label"), std::string::npos);
}

}  // namespace
}  // namespace clover
