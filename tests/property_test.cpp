// Property-based tests: invariants of the schedulers over randomized DAGs
// (seeded, deterministic) and parameterized sweeps of the two estimators
// (the paper's EWMA and the P² quantile).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "adg/best_effort.hpp"
#include "adg/limited_lp.hpp"
#include "adg/timeline.hpp"
#include "est/ewma.hpp"
#include "est/p2_quantile.hpp"

namespace askel {
namespace {

/// Random pending-only DAG: each activity may depend on a few earlier ones.
AdgSnapshot random_dag(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dur(0.1, 5.0);
  std::uniform_int_distribution<int> npreds(0, 3);
  AdgSnapshot g;
  g.now = 0.0;
  for (int k = 0; k < n; ++k) {
    std::vector<int> preds;
    if (k > 0) {
      const int want = npreds(rng);
      std::uniform_int_distribution<int> pick(0, k - 1);
      for (int j = 0; j < want; ++j) preds.push_back(pick(rng));
      std::sort(preds.begin(), preds.end());
      preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
    }
    g.add(make_pending(0, "x", dur(rng), std::move(preds)));
  }
  return g;
}

/// Random DAG with a mix of done / running / pending states at now=10.
AdgSnapshot random_mixed_dag(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dur(0.1, 4.0);
  AdgSnapshot g;
  g.now = 10.0;
  // A prefix of done activities (finished before now), then running, then
  // pending — which automatically keeps preds consistent with states.
  const int done = n / 3, running = n / 3;
  for (int k = 0; k < n; ++k) {
    std::vector<int> preds;
    if (k > 0) {
      std::uniform_int_distribution<int> pick(0, k - 1);
      // Done/running activities may only depend on done ones.
      const int limit = k < done + running ? std::min(k, done) : k;
      if (limit > 0) {
        std::uniform_int_distribution<int> p2(0, limit - 1);
        preds.push_back(p2(rng));
      }
    }
    if (k < done) {
      const double s = std::uniform_real_distribution<double>(0.0, 4.0)(rng);
      g.add(make_done(0, "d", s, s + dur(rng), std::move(preds)));
    } else if (k < done + running) {
      const double s = std::uniform_real_distribution<double>(6.0, 10.0)(rng);
      g.add(make_running(0, "r", s, dur(rng), std::move(preds)));
    } else {
      g.add(make_pending(0, "p", dur(rng), std::move(preds)));
    }
  }
  return g;
}

class SchedulerProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerProperties, LimitedLpNeverBeatsBestEffort) {
  const AdgSnapshot g = random_dag(GetParam(), 24);
  const double be = best_effort(g).wct;
  for (int k = 1; k <= 8; ++k) EXPECT_GE(limited_lp(g, k).wct + 1e-9, be);
}

TEST_P(SchedulerProperties, LimitedLpWctIsNonIncreasingInLp) {
  const AdgSnapshot g = random_dag(GetParam(), 24);
  double prev = limited_lp(g, 1).wct;
  for (int k = 2; k <= 10; ++k) {
    const double cur = limited_lp(g, k).wct;
    EXPECT_LE(cur, prev + 1e-9) << "lp=" << k;
    prev = cur;
  }
}

TEST_P(SchedulerProperties, SingleWorkerEqualsTotalWork) {
  const AdgSnapshot g = random_dag(GetParam(), 16);
  double total = 0.0;
  for (const Activity& a : g.activities) total += a.est_duration;
  EXPECT_NEAR(limited_lp(g, 1).wct, total, 1e-9);
}

TEST_P(SchedulerProperties, AbundantWorkersMatchBestEffort) {
  const AdgSnapshot g = random_dag(GetParam(), 20);
  EXPECT_NEAR(limited_lp(g, 20).wct, best_effort(g).wct, 1e-9);
}

TEST_P(SchedulerProperties, LimitedScheduleRespectsDependencies) {
  const AdgSnapshot g = random_dag(GetParam(), 24);
  const Schedule s = limited_lp(g, 3);
  for (const Activity& a : g.activities) {
    for (const int p : a.preds) {
      EXPECT_GE(s.entries[a.id].start + 1e-9, s.entries[p].end);
    }
  }
}

TEST_P(SchedulerProperties, LimitedScheduleRespectsCapacity) {
  const AdgSnapshot g = random_dag(GetParam(), 24);
  for (const int lp : {1, 2, 3, 5}) {
    const Schedule s = limited_lp(g, lp);
    EXPECT_LE(peak_concurrency(concurrency_profile(s)), lp);
  }
}

TEST_P(SchedulerProperties, BestEffortRespectsDependencies) {
  const AdgSnapshot g = random_dag(GetParam(), 24);
  const Schedule s = best_effort(g);
  for (const Activity& a : g.activities) {
    for (const int p : a.preds) {
      EXPECT_GE(s.entries[a.id].start + 1e-9, s.entries[p].end);
    }
  }
}

TEST_P(SchedulerProperties, NothingScheduledBeforeNow) {
  const AdgSnapshot g = random_mixed_dag(GetParam(), 24);
  ASSERT_TRUE(g.validate().empty()) << g.validate();
  for (const Schedule& s : {best_effort(g), limited_lp(g, 2)}) {
    for (const Activity& a : g.activities) {
      if (a.state == ActivityState::kPending) {
        EXPECT_GE(s.entries[a.id].start + 1e-9, g.now);
      }
    }
  }
}

TEST_P(SchedulerProperties, MixedStateSchedulesAreConsistent) {
  const AdgSnapshot g = random_mixed_dag(GetParam(), 24);
  const double be = best_effort(g).wct;
  double prev = limited_lp(g, 1).wct;
  EXPECT_GE(prev + 1e-9, be);
  for (int k = 2; k <= 6; ++k) {
    const double cur = limited_lp(g, k).wct;
    EXPECT_LE(cur, prev + 1e-9);
    prev = cur;
  }
}

TEST_P(SchedulerProperties, DoneAndRunningTimesAreFixedFacts) {
  const AdgSnapshot g = random_mixed_dag(GetParam(), 18);
  for (const Schedule& s : {best_effort(g), limited_lp(g, 4)}) {
    for (const Activity& a : g.activities) {
      if (a.state == ActivityState::kDone) {
        EXPECT_DOUBLE_EQ(s.entries[a.id].start, a.start);
        EXPECT_DOUBLE_EQ(s.entries[a.id].end, a.end);
      } else if (a.state == ActivityState::kRunning) {
        EXPECT_DOUBLE_EQ(s.entries[a.id].start, a.start);
        EXPECT_GE(s.entries[a.id].end, g.now);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperties,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// -------------------------------------------------------- Ewma properties --

class EwmaSweep : public ::testing::TestWithParam<double> {};

TEST_P(EwmaSweep, ConvergesToConstantInput) {
  const double rho = GetParam();
  Ewma e(rho);
  for (int k = 0; k < 100; ++k) e.observe(7.5);
  EXPECT_NEAR(e.value(), 7.5, 1e-9);
}

TEST_P(EwmaSweep, StaysWithinObservedHull) {
  const double rho = GetParam();
  Ewma e(rho);
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> dist(2.0, 9.0);
  for (int k = 0; k < 50; ++k) {
    e.observe(dist(rng));
    EXPECT_GE(e.value(), 2.0);
    EXPECT_LE(e.value(), 9.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Rhos, EwmaSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0));

// ----------------------------------------------------- estimator properties --

/// Seeded random positive stream shared by the estimator invariants below.
std::vector<double> random_stream(std::uint64_t seed, int n, double lo = 0.5,
                                  double hi = 12.0) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) out.push_back(dist(rng));
  return out;
}

class EstimatorSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EstimatorSeeds, P2StaysWithinTheObservedHull) {
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    P2Quantile est(q);
    double lo = 1e300, hi = -1e300;
    for (const double v : random_stream(GetParam(), 300)) {
      est.observe(v);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      EXPECT_GE(est.value(), lo) << "q=" << q;
      EXPECT_LE(est.value(), hi) << "q=" << q;
    }
  }
}

TEST_P(EstimatorSeeds, P2IsMonotoneInQ) {
  // Independent P² estimators over the same stream, increasing q: the
  // estimates must come out ordered (the streaming quantile keeps enough of
  // the distribution's shape that a higher quantile never reads lower).
  const std::vector<double> stream = random_stream(GetParam(), 500);
  double prev = -1e300;
  for (const double q : {0.05, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    P2Quantile est(q);
    for (const double v : stream) est.observe(v);
    EXPECT_GE(est.value() + 1e-9, prev) << "q=" << q << " seed=" << GetParam();
    prev = est.value();
  }
}

/// The contract Ewma and P2Quantile share: has_value flips on the first
/// init/observe, value() degrades to 0.0 before it (no UB, no NaN), and
/// observations() counts real observations only.
template <class Est>
void check_estimate_contract(Est est, std::uint64_t seed) {
  EXPECT_FALSE(est.has_value());
  EXPECT_EQ(est.value(), 0.0);
  est.init(3.0);
  EXPECT_TRUE(est.has_value());
  EXPECT_EQ(est.observations(), 0);
  EXPECT_EQ(est.value(), 3.0);
  for (const double v : random_stream(seed, 50)) est.observe(v);
  EXPECT_EQ(est.observations(), 50);
}

TEST_P(EstimatorSeeds, EwmaAndP2ShareTheEstimateContract) {
  check_estimate_contract(Ewma(0.5), GetParam());
  check_estimate_contract(P2Quantile(0.9), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorSeeds,
                         ::testing::Values(3, 7, 11, 19, 42));

TEST(Estimators, ConstructorsRejectBadParameters) {
  EXPECT_THROW(Ewma(1.5), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(std::nan("")), std::invalid_argument);
}

// A higher rho reacts faster to a regime change (the paper's discussion of
// choosing rho).
TEST(EwmaComparison, HigherRhoAdaptsFasterToShift) {
  Ewma slow(0.2), fast(0.8);
  for (int k = 0; k < 10; ++k) {
    slow.observe(1.0);
    fast.observe(1.0);
  }
  slow.observe(10.0);
  fast.observe(10.0);
  EXPECT_GT(fast.value(), slow.value());
}

}  // namespace
}  // namespace askel
