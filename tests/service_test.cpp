// Tests for the latency-SLO service family: the seeded open-loop stream
// generator, the P² tail tracker, the decide_slo policy, the controller's
// SLO mode (including the zero-goal rejection that protects a shared
// coordinator), and the coordinated-vs-FIFO attainment smoke comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "autonomic/controller.hpp"
#include "autonomic/coordinator.hpp"
#include "est/tail_tracker.hpp"
#include "workload/service.hpp"

namespace askel {
namespace {

// ------------------------------------------------------------------ stream --

ServiceStreamConfig small_stream() {
  ServiceStreamConfig cfg;
  cfg.seed = 11;
  cfg.tenants = 3;
  cfg.duration_s = 2.0;
  cfg.total_rate_hz = 300.0;
  cfg.zipf_skew = 1.0;
  return cfg;
}

TEST(ServiceStream, DeterministicForFixedSeed) {
  const ServiceStreamConfig cfg = small_stream();
  const std::vector<ServiceRequest> a = generate_service_stream(cfg);
  const std::vector<ServiceRequest> b = generate_service_stream(cfg);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
    EXPECT_DOUBLE_EQ(a[i].work, b[i].work);
  }
}

TEST(ServiceStream, DifferentSeedsDiffer) {
  ServiceStreamConfig cfg = small_stream();
  const std::vector<ServiceRequest> a = generate_service_stream(cfg);
  cfg.seed = 12;
  const std::vector<ServiceRequest> b = generate_service_stream(cfg);
  bool differ = a.size() != b.size();
  for (std::size_t i = 0; !differ && i < a.size(); ++i) {
    differ = a[i].arrival != b[i].arrival;
  }
  EXPECT_TRUE(differ);
}

TEST(ServiceStream, ArrivalsSortedWithinHorizonWorkBounded) {
  ServiceStreamConfig cfg = small_stream();
  cfg.diurnal_amplitude = 0.5;
  cfg.bursty = true;
  const std::vector<ServiceRequest> reqs = generate_service_stream(cfg);
  ASSERT_FALSE(reqs.empty());
  double prev = 0.0;
  for (const ServiceRequest& r : reqs) {
    EXPECT_GE(r.arrival, prev);
    EXPECT_LT(r.arrival, cfg.duration_s);
    EXPECT_GT(r.work, 0.0);
    EXPECT_LE(r.work, cfg.service_cap_s);
    EXPECT_GE(r.tenant, 0);
    EXPECT_LT(r.tenant, cfg.tenants);
    prev = r.arrival;
  }
}

TEST(ServiceStream, ZipfSkewMakesTenantZeroHottest) {
  const std::vector<ServiceRequest> reqs =
      generate_service_stream(small_stream());
  std::vector<long> count(3, 0);
  for (const ServiceRequest& r : reqs) ++count[r.tenant];
  // Zipf s=1 over 3 tenants: pmf = {6/11, 3/11, 2/11}; with ~600 expected
  // arrivals the rank order is statistically safe.
  EXPECT_GT(count[0], count[1]);
  EXPECT_GT(count[1], count[2]);
}

TEST(ServiceStream, RequestCountTracksNominalRate) {
  const ServiceStreamConfig cfg = small_stream();
  const auto n =
      static_cast<double>(generate_service_stream(cfg).size());
  const double expected = cfg.total_rate_hz * cfg.duration_s;
  EXPECT_GT(n, 0.7 * expected);
  EXPECT_LT(n, 1.3 * expected);
}

TEST(ServiceStream, BurstyEnvelopePreservesExpectedVolume) {
  ServiceStreamConfig cfg = small_stream();
  const auto plain = static_cast<double>(generate_service_stream(cfg).size());
  cfg.bursty = true;
  const auto bursty = static_cast<double>(generate_service_stream(cfg).size());
  // The envelope is normalized to mean 1, so volume moves by noise, not 2x.
  EXPECT_GT(bursty, 0.6 * plain);
  EXPECT_LT(bursty, 1.6 * plain);
}

TEST(ServiceStream, BurstyStreamIsSeedDeterministic) {
  const std::vector<double> a = bursty_stream(42, 400);
  const std::vector<double> b = bursty_stream(42, 400);
  ASSERT_EQ(a.size(), 400u);
  EXPECT_EQ(a, b);  // exact: same seed, same stream
  const std::vector<double> c = bursty_stream(43, 400);
  EXPECT_NE(a, c);  // and the seed actually matters
}

/// FNV-1a 64 over the bytes of `v`, continuing from `h`.
template <class T>
std::uint64_t fnv1a(std::uint64_t h, T v) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

// The bursty schedule for seed 42 (default shape otherwise), bit for bit:
// arrivals, tenants and demands. A change to bursty_stream or to the
// generator's draw order shows up here.
TEST(ServiceStream, BurstyScheduleIsPinnedBitForBit) {
  constexpr std::uint64_t kBurstyScheduleHash = 0xd997d9cabbdf7e91ull;
  ServiceStreamConfig cfg;
  cfg.seed = 42;
  cfg.bursty = true;
  std::uint64_t hash = 14695981039346656037ull;
  for (const ServiceRequest& r : generate_service_stream(cfg)) {
    hash = fnv1a(hash, r.arrival);
    hash = fnv1a(hash, r.tenant);
    hash = fnv1a(hash, r.work);
  }
  EXPECT_EQ(hash, kBurstyScheduleHash);
}

// ------------------------------------------------------------ tail tracker --

TEST(TailTracker, AttainmentCountsExactly) {
  TailTracker t(0.99, /*target=*/0.1);
  EXPECT_DOUBLE_EQ(t.attainment(), 1.0);  // idle tenant is not missing
  for (int k = 0; k < 8; ++k) t.record(0.05);
  for (int k = 0; k < 2; ++k) t.record(0.2);
  const TailSnapshot s = t.snapshot();
  EXPECT_EQ(s.observations, 10);
  EXPECT_EQ(s.met, 8);
  EXPECT_DOUBLE_EQ(t.attainment(), 0.8);
}

TEST(TailTracker, ResetForgets) {
  TailTracker t(0.99, 0.1);
  for (int k = 0; k < 10; ++k) t.record(0.5);
  t.reset();
  const TailSnapshot s = t.snapshot();
  EXPECT_EQ(s.observations, 0);
  EXPECT_DOUBLE_EQ(t.attainment(), 1.0);
}

TEST(TailTracker, TailDominatesMedianOnHeavyTail) {
  // Deterministic heavy-tailed latencies: mostly 10 ms, every 20th ~200 ms.
  TailTracker t(0.99);
  for (int k = 1; k <= 400; ++k) {
    t.record(k % 20 == 0 ? 0.2 : 0.01);
    if (k >= 10) {
      const TailSnapshot s = t.snapshot();
      EXPECT_GE(s.tail, s.median) << "at observation " << k;
    }
  }
}

// --------------------------------------------------------------- decide_slo --

TailSnapshot snap(double tail, double median, long obs) {
  TailSnapshot s;
  s.tail = tail;
  s.median = median;
  s.observations = obs;
  return s;
}

TEST(DecideSlo, RejectsDegenerateGoal) {
  const Decision d = decide_slo(snap(0.2, 0.1, 100), /*goal=*/0.0, 2, 8);
  EXPECT_EQ(d.reason, DecisionReason::kInvalidGoal);
  EXPECT_EQ(d.new_lp, 2);
}

TEST(DecideSlo, WaitsForObservations) {
  EXPECT_EQ(decide_slo(snap(0, 0, 0), 0.1, 2, 8).reason,
            DecisionReason::kEmptySnapshot);
  EXPECT_EQ(decide_slo(snap(0.2, 0.1, 5), 0.1, 2, 8).reason,
            DecisionReason::kIncompleteEstimates);
}

TEST(DecideSlo, GrowsProportionallyToTheMiss) {
  // Tail at 1.5x the goal from LP 4: proportional target is ceil(6) = 6.
  const Decision d = decide_slo(snap(0.15, 0.05, 100), 0.1, 4, 16);
  EXPECT_EQ(d.reason, DecisionReason::kSloIncrease);
  EXPECT_EQ(d.new_lp, 6);
}

TEST(DecideSlo, RampFactorCapsTheStep) {
  // Tail at 10x the goal, ramp_factor 2: one step at most doubles.
  const Decision d = decide_slo(snap(1.0, 0.5, 100), 0.1, 4, 16);
  EXPECT_EQ(d.reason, DecisionReason::kSloIncrease);
  EXPECT_EQ(d.new_lp, 8);
}

TEST(DecideSlo, CeilingHoldsAtMaxLp) {
  const Decision d = decide_slo(snap(1.0, 0.5, 100), 0.1, 8, 8);
  EXPECT_EQ(d.reason, DecisionReason::kNoChange);
  EXPECT_EQ(d.new_lp, 8);
}

TEST(DecideSlo, HalvesWhenComfortablyUnder) {
  const Decision d = decide_slo(snap(0.02, 0.01, 100), 0.1, 8, 16);
  EXPECT_EQ(d.reason, DecisionReason::kSloDecrease);
  EXPECT_EQ(d.new_lp, 4);
}

TEST(DecideSlo, HoldsInsideTheComfortBand) {
  // Tail between decrease_margin*goal and goal: no churn in either direction.
  const Decision d = decide_slo(snap(0.08, 0.04, 100), 0.1, 4, 16);
  EXPECT_EQ(d.reason, DecisionReason::kNoChange);
  EXPECT_EQ(d.new_lp, 4);
}

TEST(SloPressure, SignScaleAndClamp) {
  EXPECT_DOUBLE_EQ(slo_pressure(snap(0.2, 0.1, 10), 0.1), 1.0);   // 2x = 1.0
  EXPECT_DOUBLE_EQ(slo_pressure(snap(0.05, 0.02, 10), 0.1), -0.5);
  EXPECT_DOUBLE_EQ(slo_pressure(snap(0.2, 0.1, 0), 0.1), 0.0);    // warming
  EXPECT_DOUBLE_EQ(slo_pressure(snap(0.2, 0.1, 10), 0.0), 0.0);   // no goal
  EXPECT_DOUBLE_EQ(slo_pressure(snap(1e12, 0.1, 10), 1e-3), kMaxPressure);
}

// -------------------------------------------------------- controller (SLO) --

TEST(SloController, TailPressureGrowsTheGrant) {
  ResizableThreadPool pool(1, 8);
  LpBudgetCoordinator coord(pool, 8);
  EstimateRegistry reg;
  TrackerSet trackers(reg);
  ManualClock clock;
  AutonomicController ctl(pool, trackers, &clock);
  const int tenant = coord.register_tenant("svc");
  ctl.bind_coordinator(&coord, tenant);
  ASSERT_TRUE(ctl.arm_slo(/*tail_goal=*/0.05, /*max_lp=*/8));
  EXPECT_EQ(ctl.goals().kind, GoalKind::kTailLatency);

  const int before = coord.granted(tenant);
  for (int k = 0; k < 64; ++k) {
    clock.advance(0.01);
    ctl.record_latency(0.2);  // 4x the goal, every time
  }
  EXPECT_GT(coord.granted(tenant), before);
  EXPECT_GT(ctl.tail_snapshot().tail, 0.05);
  EXPECT_LT(ctl.slo_attainment(), 0.01);

  ctl.disarm();
  EXPECT_EQ(coord.granted(tenant), 0);
  coord.unregister_tenant(tenant);
}

TEST(SloController, ComfortableTailReleasesLp) {
  ResizableThreadPool pool(1, 8);
  LpBudgetCoordinator coord(pool, 8);
  EstimateRegistry reg;
  TrackerSet trackers(reg);
  ManualClock clock;
  AutonomicController ctl(pool, trackers, &clock);
  const int tenant = coord.register_tenant("svc");
  ctl.bind_coordinator(&coord, tenant);
  ASSERT_TRUE(ctl.arm_slo(0.05, 8));
  for (int k = 0; k < 64; ++k) {
    clock.advance(0.01);
    ctl.record_latency(0.2);
  }
  const int grown = coord.granted(tenant);
  ASSERT_GT(grown, 1);
  // The goal is re-armed fresh (new tracker), then fed comfortable latencies.
  ASSERT_TRUE(ctl.arm_slo(0.05, 8));
  for (int k = 0; k < 64; ++k) {
    clock.advance(0.01);
    ctl.record_latency(0.001);  // far under the goal
  }
  EXPECT_LT(coord.granted(tenant), grown);
  EXPECT_DOUBLE_EQ(ctl.slo_attainment(), 1.0);
  ctl.disarm();
  coord.unregister_tenant(tenant);
}

// --------------------------------------------- zero-goal rejection (bugfix) --

TEST(GoalValidation, RejectsDegenerateGoals) {
  QoSGoals g;  // defaults: kWct with wct_goal 0 — the historical footgun
  EXPECT_NE(validate_goals(g), nullptr);
  g.wct_goal = -1.0;
  EXPECT_NE(validate_goals(g), nullptr);
  g.wct_goal = std::numeric_limits<double>::infinity();
  EXPECT_NE(validate_goals(g), nullptr);
  g.wct_goal = 5.0;
  EXPECT_EQ(validate_goals(g), nullptr);

  QoSGoals slo;
  slo.kind = GoalKind::kTailLatency;
  slo.tail_goal = 0.0;
  EXPECT_NE(validate_goals(slo), nullptr);
  slo.tail_goal = 0.05;
  slo.tail_quantile = 1.0;
  EXPECT_NE(validate_goals(slo), nullptr);
  slo.tail_quantile = 0.99;
  EXPECT_EQ(validate_goals(slo), nullptr);

  QoSGoals neg = g;
  neg.max_lp = -1;
  EXPECT_NE(validate_goals(neg), nullptr);
}

TEST(ZeroGoal, ArmRejectsAndStaysDisarmed) {
  ResizableThreadPool pool(1, 4);
  EstimateRegistry reg;
  TrackerSet trackers(reg);
  ManualClock clock;
  AutonomicController ctl(pool, trackers, &clock);
  EXPECT_FALSE(ctl.arm(0.0));
  EXPECT_FALSE(ctl.armed());
  EXPECT_FALSE(ctl.arm(-3.0));
  EXPECT_FALSE(ctl.arm_slo(0.0));
  const auto actions = ctl.actions();
  ASSERT_FALSE(actions.empty());
  for (const auto& a : actions) {
    EXPECT_EQ(a.reason, DecisionReason::kInvalidGoal);
    EXPECT_EQ(a.from_lp, a.to_lp);  // nothing was actuated
  }
  // A valid arm still works after rejections.
  EXPECT_TRUE(ctl.arm(5.0));
  EXPECT_TRUE(ctl.armed());
}

TEST(ZeroGoal, RejectedTenantCannotPoisonTheCoordinator) {
  ResizableThreadPool pool(1, 8);
  LpBudgetCoordinator coord(pool, 8);
  EstimateRegistry reg_victim, reg_bogus;
  TrackerSet trackers_victim(reg_victim), trackers_bogus(reg_bogus);
  ManualClock clock;

  AutonomicController victim(pool, trackers_victim, &clock);
  const int vt = coord.register_tenant("victim");
  victim.bind_coordinator(&coord, vt);
  ASSERT_TRUE(victim.arm(10.0, 8));
  coord.request(vt, 8, /*pressure=*/0.5);
  ASSERT_EQ(coord.granted(vt), 8);  // sole tenant: full budget

  AutonomicController bogus(pool, trackers_bogus, &clock);
  const int bt = coord.register_tenant("zero-goal");
  bogus.bind_coordinator(&coord, bt);
  EXPECT_FALSE(bogus.arm(0.0, 8));

  // The rejected tenant never armed with the coordinator: the active set
  // excludes it and the honest tenant's water-fill share is untouched.
  const std::vector<int> active = coord.active_tenants();
  EXPECT_EQ(active, std::vector<int>{vt});
  EXPECT_EQ(coord.granted(bt), 0);
  EXPECT_EQ(coord.granted(vt), 8);
  EXPECT_EQ(coord.request(vt, 8, 0.5), 8);  // re-arbitration unchanged

  victim.disarm();
  coord.unregister_tenant(vt);
  coord.unregister_tenant(bt);
}

// ------------------------------------------------- scenario (smoke, timed) --

TEST(ServiceScenario, CoordinatedBeatsFifoBaselineUnderAggressor) {
  // Smoke-sized replay of the bench scenario: one SLO tenant (hot, weight 3)
  // plus background traffic, against a flooding aggressor. Coordinated mode
  // must hold the p99 goal strictly better than the FIFO/no-coordinator
  // baseline — the flood makes the baseline dramatically worse, so the
  // comparison is robust even on a loaded 1-core CI box.
  ServiceScenarioConfig cfg;
  cfg.stream.seed = 7;
  cfg.stream.tenants = 2;
  cfg.stream.duration_s = 1.2;
  cfg.stream.total_rate_hz = 60.0;
  cfg.stream.mean_service_s = 0.002;
  cfg.stream.service_cap_s = 0.02;
  cfg.specs = {ServiceTenantSpec{/*tail_goal_s=*/0.1, /*weight=*/3},
               ServiceTenantSpec{}};
  cfg.max_lp = 4;
  cfg.aggressor = true;
  cfg.aggressor_work_s = 0.02;

  cfg.coordinated = true;
  const ServiceScenarioResult coordinated = run_service_scenario(cfg);
  cfg.coordinated = false;
  const ServiceScenarioResult baseline = run_service_scenario(cfg);

  ASSERT_EQ(coordinated.tenants.size(), 2u);
  ASSERT_EQ(baseline.tenants.size(), 2u);
  // Identical seeds => identical schedules on both sides.
  EXPECT_EQ(coordinated.total_requests, baseline.total_requests);
  EXPECT_GT(coordinated.total_requests, 0);
  EXPECT_TRUE(coordinated.budget_held);
  EXPECT_GT(coordinated.tenants[0].peak_grant, 0);
  EXPECT_FALSE(coordinated.tenants[0].attainment_curve.empty());

  EXPECT_GT(coordinated.tenants[0].attainment,
            baseline.tenants[0].attainment);
}

}  // namespace
}  // namespace askel
