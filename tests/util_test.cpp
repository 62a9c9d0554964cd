// Unit tests for util/: clocks, time series, Zipf sampler, table rendering.

#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <cstdlib>
#include <thread>
#include <vector>

#include "util/clock.hpp"
#include "util/csv.hpp"
#include "util/time_series.hpp"
#include "util/zipf.hpp"

namespace askel {
namespace {

TEST(ManualClock, StartsAtGivenTime) {
  ManualClock c(5.0);
  EXPECT_DOUBLE_EQ(c.now(), 5.0);
}

TEST(ManualClock, AdvanceAccumulates) {
  ManualClock c;
  c.advance(1.5);
  c.advance(2.5);
  EXPECT_DOUBLE_EQ(c.now(), 4.0);
}

TEST(ManualClock, SetJumpsForward) {
  ManualClock c(1.0);
  c.set(10.0);
  EXPECT_DOUBLE_EQ(c.now(), 10.0);
}

TEST(SteadyClock, StartsNearZeroAndIsMonotone) {
  SteadyClock c;
  const TimePoint a = c.now();
  EXPECT_GE(a, 0.0);
  EXPECT_LT(a, 1.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const TimePoint b = c.now();
  EXPECT_GT(b, a);
}

TEST(SteadyClock, DefaultClockIsSingleton) {
  EXPECT_EQ(&default_clock(), &default_clock());
}

TEST(TimeSeries, RecordsInOrder) {
  TimeSeries s;
  s.record(1.0, 10.0);
  s.record(2.0, 20.0);
  const auto v = s.samples();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], (Sample{1.0, 10.0}));
  EXPECT_EQ(v[1], (Sample{2.0, 20.0}));
}

TEST(TimeSeries, MaxValue) {
  TimeSeries s;
  EXPECT_DOUBLE_EQ(s.max_value(), 0.0);
  s.record(0.0, 3.0);
  s.record(1.0, 7.0);
  s.record(2.0, 5.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 7.0);
}

TEST(TimeSeries, ValueAtStepSemantics) {
  TimeSeries s;
  s.record(1.0, 1.0);
  s.record(3.0, 3.0);
  EXPECT_DOUBLE_EQ(s.value_at(0.5, -1.0), -1.0);  // before first sample
  EXPECT_DOUBLE_EQ(s.value_at(1.0), 1.0);
  EXPECT_DOUBLE_EQ(s.value_at(2.9), 1.0);
  EXPECT_DOUBLE_EQ(s.value_at(3.0), 3.0);
  EXPECT_DOUBLE_EQ(s.value_at(100.0), 3.0);
}

TEST(TimeSeries, TimeWeightedMean) {
  TimeSeries s;
  s.record(0.0, 2.0);
  s.record(5.0, 4.0);
  // [0,5): 2, [5,10): 4 → mean over [0,10] = 3.
  EXPECT_NEAR(s.time_weighted_mean(0.0, 10.0), 3.0, 1e-12);
  // Entirely within the first step.
  EXPECT_NEAR(s.time_weighted_mean(1.0, 4.0), 2.0, 1e-12);
  // Degenerate interval.
  EXPECT_DOUBLE_EQ(s.time_weighted_mean(3.0, 3.0), 0.0);
}

TEST(TimeSeries, ClearEmpties) {
  TimeSeries s;
  s.record(0.0, 1.0);
  s.clear();
  EXPECT_EQ(s.size(), 0u);
}

TEST(TimeSeries, ConcurrentRecordsAllLand) {
  TimeSeries s;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&s, t] {
      for (int k = 0; k < 250; ++k) s.record(t, k);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(s.size(), 1000u);
}

TEST(TimeSeries, CsvRendering) {
  const std::vector<Sample> v = {{0.0, 1.0}, {1.5, 2.0}};
  const std::string csv = to_csv(v, "t", "lp");
  EXPECT_EQ(csv, "t,lp\n0,1\n1.5,2\n");
}

TEST(Zipf, PmfSumsToOne) {
  const ZipfDistribution z(100, 1.2);
  double sum = 0.0;
  for (std::size_t k = 0; k < z.n(); ++k) sum += z.pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, PmfIsDecreasingInRank) {
  const ZipfDistribution z(50, 1.0);
  for (std::size_t k = 1; k < z.n(); ++k) EXPECT_GE(z.pmf(k - 1), z.pmf(k));
}

TEST(Zipf, ZeroSkewIsUniform) {
  const ZipfDistribution z(10, 0.0);
  for (std::size_t k = 0; k < z.n(); ++k) EXPECT_NEAR(z.pmf(k), 0.1, 1e-9);
}

TEST(Zipf, SamplesInRangeAndDeterministic) {
  const ZipfDistribution z(20, 1.1);
  std::mt19937_64 a(7), b(7);
  for (int k = 0; k < 1000; ++k) {
    const std::size_t x = z(a);
    EXPECT_LT(x, 20u);
    EXPECT_EQ(x, z(b));
  }
}

TEST(Zipf, HigherSkewConcentratesOnRankZero) {
  const ZipfDistribution flat(100, 0.5);
  const ZipfDistribution steep(100, 2.0);
  EXPECT_GT(steep.pmf(0), flat.pmf(0));
}

TEST(Zipf, RejectsEmptySupport) {
  EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument);
}

TEST(Zipf, BoundaryDrawsStayInRange) {
  // The cumulative table is a float cumsum; the final bin is pinned to
  // exactly 1.0 AND rank() clamps past-the-end results, so a draw at (or
  // arithmetically above) 1.0 maps to the last rank instead of indexing
  // past the table.
  const ZipfDistribution z(7, 1.3);
  EXPECT_EQ(z.rank(1.0), 6u);
  EXPECT_EQ(z.rank(std::nextafter(1.0, 2.0)), 6u);
  EXPECT_EQ(z.rank(1.5), 6u);
  EXPECT_EQ(z.rank(0.0), 0u);
  for (const double u : {0.1, 0.5, 0.9, 0.999999999999}) {
    EXPECT_LT(z.rank(u), 7u);
  }
}

TEST(Zipf, BoundaryHoldsUnderAdverseParameters) {
  // Large support + strong skew piles float rounding into the cumsum; the
  // pin/clamp pair must still hold the edge for every support size.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{1000},
                              std::size_t{100000}}) {
    const ZipfDistribution z(n, 2.5);
    EXPECT_EQ(z.rank(1.0), n - 1);
    EXPECT_EQ(z.rank(std::nextafter(1.0, 2.0)), n - 1);
  }
}

TEST(Zipf, RatesSplitTotalByPmf) {
  const ZipfDistribution z(4, 1.0);
  const std::vector<double> r = z.rates(100.0);
  ASSERT_EQ(r.size(), 4u);
  double sum = 0.0;
  for (std::size_t k = 0; k < r.size(); ++k) {
    EXPECT_NEAR(r[k], 100.0 * z.pmf(k), 1e-9);
    sum += r[k];
  }
  EXPECT_NEAR(sum, 100.0, 1e-9);
  EXPECT_GT(r[0], r[3]);  // hottest rank gets the biggest share
}

TEST(Zipf, EmpiricalFrequencyTracksPmf) {
  const ZipfDistribution z(10, 1.0);
  std::mt19937_64 rng(123);
  std::vector<int> hits(10, 0);
  const int n = 20000;
  for (int k = 0; k < n; ++k) ++hits[z(rng)];
  EXPECT_NEAR(static_cast<double>(hits[0]) / n, z.pmf(0), 0.02);
  EXPECT_NEAR(static_cast<double>(hits[9]) / n, z.pmf(9), 0.02);
}

TEST(Table, TextRenderingAligns) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("a    bb"), std::string::npos);
  EXPECT_NE(text.find("333  4"), std::string::npos);
}

TEST(Table, CsvRendering) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\n");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"x", "y"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Fmt, FormatsWithPrecision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

// Every test binary links tests/support/crash_stacks.cpp: a fatal signal
// prints the stack to stderr, then still kills the process with that signal.
TEST(CrashStacksDeathTest, FatalSignalPrintsAStackThenDiesOfIt) {
  EXPECT_EXIT(std::abort(), ::testing::KilledBySignal(SIGABRT),
              "fatal signal in test; stack:.*util_test");
}

}  // namespace
}  // namespace askel
