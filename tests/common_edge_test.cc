// Edge-case coverage for common/quantile and common/rng: empty and
// single-sample quantile queries, p0/p100 bounds, and cross-run
// reproducibility of seeded RNG streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/quantile.h"
#include "common/rng.h"

namespace clover {
namespace {

// ---------------------------------------------------------------------------
// Quantile estimators: empty and single-sample queries
// ---------------------------------------------------------------------------

TEST(QuantileEdge, EmptyEstimatorsReturnZero) {
  ExactQuantile exact;
  LogHistogramQuantile histogram;
  for (double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_EQ(exact.Quantile(q), 0.0) << "q=" << q;
    EXPECT_EQ(histogram.Quantile(q), 0.0) << "q=" << q;
  }
  EXPECT_EQ(exact.count(), 0u);
  EXPECT_EQ(histogram.count(), 0u);
}

TEST(QuantileEdge, SingleSampleIsEveryQuantile) {
  ExactQuantile exact;
  exact.Add(42.0);
  for (double q : {0.0, 0.25, 0.5, 0.95, 1.0})
    EXPECT_DOUBLE_EQ(exact.Quantile(q), 42.0) << "q=" << q;

  // The log histogram is accurate to its bin width.
  LogHistogramQuantile histogram;
  histogram.Add(42.0);
  EXPECT_NEAR(histogram.Quantile(0.95), 42.0, 42.0 * 0.05);
}

TEST(QuantileEdge, P0AndP100AreMinAndMax) {
  const std::vector<double> samples = {5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0};
  ExactQuantile exact;
  for (double x : samples) exact.Add(x);
  const double lo = *std::min_element(samples.begin(), samples.end());
  const double hi = *std::max_element(samples.begin(), samples.end());
  EXPECT_DOUBLE_EQ(exact.Quantile(0.0), lo);
  EXPECT_DOUBLE_EQ(exact.Quantile(1.0), hi);
  // All interior quantiles stay within [min, max].
  for (double q = 0.05; q < 1.0; q += 0.05) {
    EXPECT_GE(exact.Quantile(q), lo) << "q=" << q;
    EXPECT_LE(exact.Quantile(q), hi) << "q=" << q;
  }
}

TEST(QuantileEdge, ResetRestoresEmptyBehavior) {
  ExactQuantile exact;
  LogHistogramQuantile histogram;
  for (int i = 1; i <= 100; ++i) {
    exact.Add(i);
    histogram.Add(i);
  }
  exact.Reset();
  histogram.Reset();
  EXPECT_EQ(exact.count(), 0u);
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(exact.Quantile(0.95), 0.0);
  EXPECT_EQ(histogram.Quantile(0.95), 0.0);
}

// ---------------------------------------------------------------------------
// RNG streams: cross-run reproducibility and stream independence
// ---------------------------------------------------------------------------

TEST(RngEdge, SeededStreamsReproduceAcrossInstances) {
  RngStream a(2024, "scenario-stream");
  RngStream b(2024, "scenario-stream");
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(a.Next(), b.Next());
  // All derived draw types stay in lockstep too.
  RngStream c(2024, "scenario-stream");
  RngStream d(2024, "scenario-stream");
  for (int i = 0; i < 1000; ++i) {
    EXPECT_DOUBLE_EQ(c.NextDouble(), d.NextDouble());
    EXPECT_EQ(c.NextBounded(97), d.NextBounded(97));
    EXPECT_DOUBLE_EQ(c.NextExponential(3.5), d.NextExponential(3.5));
    EXPECT_DOUBLE_EQ(c.NextGaussian(), d.NextGaussian());
  }
}

TEST(RngEdge, DifferentSeedsOrNamesDiverge) {
  RngStream base(1, "arrivals");
  RngStream other_seed(2, "arrivals");
  RngStream other_name(1, "jitter");
  int same_seed_matches = 0, same_name_matches = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t x = base.Next();
    same_seed_matches += (x == other_seed.Next()) ? 1 : 0;
    same_name_matches += (x == other_name.Next()) ? 1 : 0;
  }
  EXPECT_EQ(same_seed_matches, 0);
  EXPECT_EQ(same_name_matches, 0);
}

TEST(RngEdge, HashStreamNameIsStable) {
  // The stream-name hash participates in seeding; if it ever changed, every
  // fixed-seed experiment in the repo would silently shift.
  EXPECT_EQ(HashStreamName("poisson-arrivals"),
            HashStreamName("poisson-arrivals"));
  EXPECT_NE(HashStreamName("poisson-arrivals"),
            HashStreamName("service-jitter"));
  EXPECT_NE(HashStreamName(""), HashStreamName("a"));
}

TEST(RngEdge, DistributionsRespectTheirSupports) {
  RngStream rng(7, "support-check");
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(rng.NextBounded(10), 10u);
    EXPECT_EQ(rng.NextBounded(1), 0u);
    EXPECT_GE(rng.NextExponential(2.0), 0.0);
  }
}

}  // namespace
}  // namespace clover
