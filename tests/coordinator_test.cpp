// Tests for autonomic/coordinator: LP-budget arbitration between sharded
// per-skeleton controllers, and the single-controller equivalence guarantee.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "autonomic/controller.hpp"
#include "autonomic/coordinator.hpp"
#include "runtime/fake_transport.hpp"
#include "runtime/remote_backend.hpp"
#include "workload/paper_example.hpp"

namespace askel {
namespace {

TEST(Coordinator, BudgetDefaultsToPoolMaxAndClamps) {
  ResizableThreadPool pool(1, 8);
  {
    LpBudgetCoordinator coord(pool);
    EXPECT_EQ(coord.budget(), 8);
  }
  {
    LpBudgetCoordinator coord(pool, 20);
    EXPECT_EQ(coord.budget(), 8);
  }
  LpBudgetCoordinator coord(pool, 3);
  EXPECT_EQ(coord.budget(), 3);
  EXPECT_EQ(pool.lp_limit(), 3);
}

TEST(Coordinator, BudgetIsAHardCapOnThePoolEvenForDirectSetters) {
  ResizableThreadPool pool(1, 8);
  LpBudgetCoordinator coord(pool, 3);
  // A caller bypassing the coordinator still cannot exceed the budget: the
  // coordinator installed it as the pool's lp_limit.
  EXPECT_EQ(pool.set_target_lp(8), 3);
  EXPECT_EQ(pool.target_lp(), 3);
}

TEST(Coordinator, LimitRestoredOnDestruction) {
  ResizableThreadPool pool(1, 8);
  { LpBudgetCoordinator coord(pool, 2); }
  EXPECT_EQ(pool.lp_limit(), 8);
  EXPECT_EQ(pool.set_target_lp(8), 8);
}

TEST(Coordinator, BudgetExhaustionWithThreeArmedControllers) {
  ResizableThreadPool pool(1, 8);
  LpBudgetCoordinator coord(pool, 4);
  const int t1 = coord.register_tenant("a");
  const int t2 = coord.register_tenant("b");
  const int t3 = coord.register_tenant("c");
  coord.arm_tenant(t1);
  coord.arm_tenant(t2);
  coord.arm_tenant(t3);
  coord.request(t1, 3, 0.5);
  coord.request(t2, 3, 1.5);
  coord.request(t3, 3, 1.0);
  // 9 desired into a budget of 4: everyone gets the 1-thread floor, and the
  // single leftover thread goes to the widest relative goal miss (t2).
  EXPECT_EQ(coord.granted(t1), 1);
  EXPECT_EQ(coord.granted(t2), 2);
  EXPECT_EQ(coord.granted(t3), 1);
  EXPECT_EQ(coord.total_granted(), 4);
  EXPECT_LE(coord.peak_total_granted(), 4);
  EXPECT_EQ(pool.target_lp(), 4);
}

TEST(Coordinator, HighPressureTenantPreemptsLowPressureGrant) {
  ResizableThreadPool pool(1, 8);
  LpBudgetCoordinator coord(pool, 4);
  const int t1 = coord.register_tenant();
  const int t2 = coord.register_tenant();
  coord.arm_tenant(t1);
  EXPECT_EQ(coord.request(t1, 4, 0.1), 4);  // alone: gets all of it
  coord.arm_tenant(t2);
  EXPECT_EQ(coord.request(t2, 4, 5.0), 3);
  // The contested LP moved to the wider miss; t1 keeps only its floor.
  EXPECT_EQ(coord.granted(t1), 1);
  EXPECT_EQ(coord.total_granted(), 4);
}

TEST(Coordinator, DisarmReleasesBudget) {
  ResizableThreadPool pool(1, 8);
  LpBudgetCoordinator coord(pool, 4);
  const int t1 = coord.register_tenant();
  const int t2 = coord.register_tenant();
  coord.arm_tenant(t1);
  EXPECT_EQ(coord.request(t1, 4, 1.0), 4);
  coord.arm_tenant(t2);
  EXPECT_EQ(coord.request(t2, 4, 0.5), 1);  // t1 outranks: floor only
  coord.release(t1);
  // t1's grant returned to the pool and the survivor was topped up.
  EXPECT_EQ(coord.granted(t1), 0);
  EXPECT_EQ(coord.granted(t2), 4);
  EXPECT_EQ(coord.total_granted(), 4);
  EXPECT_EQ(coord.armed_tenants(), 1);
}

TEST(Coordinator, UnregisterReleasesLikeDisarm) {
  ResizableThreadPool pool(1, 8);
  LpBudgetCoordinator coord(pool, 4);
  const int t1 = coord.register_tenant();
  const int t2 = coord.register_tenant();
  coord.arm_tenant(t1);
  coord.arm_tenant(t2);
  coord.request(t1, 4, 2.0);
  coord.request(t2, 4, 1.0);
  coord.unregister_tenant(t1);
  EXPECT_EQ(coord.granted(t1), 0);
  EXPECT_EQ(coord.granted(t2), 4);
  // A forgotten tenant's requests are void.
  EXPECT_EQ(coord.request(t1, 4, 9.0), 0);
  EXPECT_EQ(coord.granted(t2), 4);
}

TEST(Coordinator, MaxLpOnePoolNeverExceedsOne) {
  ResizableThreadPool pool(1, 4);
  LpBudgetCoordinator coord(pool, 1);
  const int t1 = coord.register_tenant();
  const int t2 = coord.register_tenant();
  coord.arm_tenant(t1);
  coord.arm_tenant(t2);
  coord.request(t1, 5, 2.0);
  coord.request(t2, 5, 3.0);
  // One thread total: the widest miss holds it, the other waits at zero
  // (it still progresses — pool workers are shared, not partitioned).
  EXPECT_EQ(coord.granted(t2), 1);
  EXPECT_EQ(coord.granted(t1), 0);
  EXPECT_EQ(coord.total_granted(), 1);
  EXPECT_EQ(coord.peak_total_granted(), 1);
  EXPECT_EQ(pool.target_lp(), 1);
  EXPECT_EQ(pool.set_target_lp(4), 1);  // budget cap holds at the pool too
}

TEST(Coordinator, ShrinkingBudgetReclaimsGrants) {
  ResizableThreadPool pool(1, 8);
  LpBudgetCoordinator coord(pool, 6);
  const int t1 = coord.register_tenant();
  coord.arm_tenant(t1);
  EXPECT_EQ(coord.request(t1, 6, 1.0), 6);
  coord.set_budget(2);
  EXPECT_EQ(coord.granted(t1), 2);
  EXPECT_EQ(pool.target_lp(), 2);
  EXPECT_EQ(pool.lp_limit(), 2);
}

TEST(Coordinator, HistoryRecordsPerTenantGrantChanges) {
  ResizableThreadPool pool(1, 8);
  LpBudgetCoordinator coord(pool, 4);
  const int t1 = coord.register_tenant("alpha");
  coord.arm_tenant(t1);
  coord.request(t1, 3, 0.7);
  coord.release(t1);
  const auto h = coord.history(t1);
  ASSERT_GE(h.size(), 3u);  // arm grant, top-up to 3, release to 0
  EXPECT_EQ(h.front().from_grant, 0);
  EXPECT_EQ(h.back().to_grant, 0);
  for (const auto& a : h) EXPECT_EQ(a.tenant, t1);
  // The 3-grant record carries the request context.
  bool saw_request = false;
  for (const auto& a : h) {
    if (a.to_grant == 3) {
      saw_request = true;
      EXPECT_EQ(a.requested, 3);
      EXPECT_DOUBLE_EQ(a.pressure, 0.7);
    }
  }
  EXPECT_TRUE(saw_request);
}

TEST(Coordinator, ReArmingSoloTenantInheritsPoolTarget) {
  // A solo tenant that arms again (new goal, same pattern as an
  // uncoordinated controller's re-arm) must keep planning from the pool's
  // current target, not collapse back to LP 1.
  ResizableThreadPool pool(1, 8);
  LpBudgetCoordinator coord(pool);
  const int t1 = coord.register_tenant();
  coord.arm_tenant(t1);
  EXPECT_EQ(coord.request(t1, 6, 1.0), 6);
  EXPECT_EQ(pool.target_lp(), 6);
  EXPECT_EQ(coord.arm_tenant(t1), 6);  // re-arm: inherit, like fresh arm
  EXPECT_EQ(pool.target_lp(), 6);
}

TEST(Coordinator, UnregisteredIdsAreRecycled) {
  ResizableThreadPool pool(1, 8);
  LpBudgetCoordinator coord(pool, 4);
  const int a = coord.register_tenant("a");
  coord.arm_tenant(a);
  coord.request(a, 4, 1.0);
  coord.unregister_tenant(a);
  const int b = coord.register_tenant("b");
  EXPECT_EQ(b, a);                 // slot recycled: bounded by live tenants
  EXPECT_EQ(coord.granted(b), 0);  // ...with fresh state, no inherited grant
  EXPECT_EQ(coord.armed_tenants(), 0);
  EXPECT_EQ(coord.register_tenant("c"), b + 1);  // free list drained
}

TEST(Coordinator, ShrinkingLimitRetargetsPendingProvisionedGrow) {
  ResizableThreadPool pool(1, 8);
  pool.set_provision_delay(0.05);
  EXPECT_EQ(pool.set_target_lp(8), 8);  // delayed grow: effective LP still 1
  EXPECT_EQ(pool.effective_lp(), 1);
  // Capping mid-provision must not lose the grow: the 8-thread join
  // self-cancels, and a join at the cap replaces it.
  EXPECT_EQ(pool.set_lp_limit(4), 4);
  EXPECT_EQ(pool.target_lp(), 4);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pool.effective_lp() < 4 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(pool.effective_lp(), 4);
}

TEST(Coordinator, ShrinkingLimitLowersPendingRequest) {
  ResizableThreadPool pool(1, 8);
  EXPECT_EQ(pool.set_target_lp(8), 8);
  EXPECT_EQ(pool.set_lp_limit(3), 3);
  EXPECT_EQ(pool.target_lp(), 3);
  EXPECT_EQ(pool.effective_lp(), 3);
  // Raising the limit does not resurrect the pre-shrink target.
  EXPECT_EQ(pool.set_lp_limit(8), 8);
  EXPECT_EQ(pool.target_lp(), 3);
}

// ------------------------------------------------- arbitration policies --

TEST(Coordinator, DefaultPolicyIsDeadlinePressure) {
  ResizableThreadPool pool(1, 8);
  LpBudgetCoordinator coord(pool, 4);
  EXPECT_EQ(coord.policy_name(), "deadline-pressure");
  coord.set_policy(std::make_unique<WeightedSharePolicy>());
  EXPECT_EQ(coord.policy_name(), "weighted-share");
  coord.set_policy(nullptr);  // restores the default
  EXPECT_EQ(coord.policy_name(), "deadline-pressure");
}

TEST(Coordinator, WeightedPolicySplitsBySlaClass) {
  // Budget 8 over weights 4:2:1 (all demanding everything) water-fills to
  // grants proportional to weight: {5, 2, 1}.
  ResizableThreadPool pool(1, 16);
  LpBudgetCoordinator coord(pool, 8);
  coord.set_policy(std::make_unique<WeightedSharePolicy>());
  const int gold = coord.register_tenant("gold");
  const int silver = coord.register_tenant("silver");
  const int bronze = coord.register_tenant("bronze");
  coord.set_tenant_weight(gold, 4);
  coord.set_tenant_weight(silver, 2);
  coord.arm_tenant(gold);
  coord.arm_tenant(silver);
  coord.arm_tenant(bronze);
  coord.request(gold, 8, 1.0);
  coord.request(silver, 8, 1.0);
  coord.request(bronze, 8, 1.0);
  EXPECT_EQ(coord.granted(gold), 5);
  EXPECT_EQ(coord.granted(silver), 2);
  EXPECT_EQ(coord.granted(bronze), 1);
  EXPECT_EQ(coord.total_granted(), 8);
  // A lying bronze tenant reporting sky-high pressure moves nothing: the
  // weighted policy is not gameable through self-reported misses.
  coord.request(bronze, 8, 99.0);
  EXPECT_EQ(coord.granted(bronze), 1);
  EXPECT_EQ(coord.granted(gold), 5);
}

TEST(Coordinator, WeightedPolicyCapsAtDesiredAndRedistributes) {
  // The heavy class only wants 2 threads; its unused share flows on to the
  // lighter class instead of going idle (work conservation in arbitration).
  ResizableThreadPool pool(1, 16);
  LpBudgetCoordinator coord(pool, 8);
  coord.set_policy(std::make_unique<WeightedSharePolicy>());
  const int a = coord.register_tenant();
  const int b = coord.register_tenant();
  coord.set_tenant_weight(a, 4);
  coord.arm_tenant(a);
  coord.arm_tenant(b);
  coord.request(a, 2, 1.0);
  coord.request(b, 8, 1.0);
  EXPECT_EQ(coord.granted(a), 2);
  EXPECT_EQ(coord.granted(b), 6);
}

// --------------------------------------------- preemption-cost awareness --

TEST(Coordinator, PreemptionHoldDefersReclaimUntilWindowPasses) {
  ManualClock clock(0.0);
  ResizableThreadPool pool(1, 16, &clock);
  LpBudgetCoordinator coord(pool, 8, &clock);
  coord.set_preemption_hold(10.0);
  const int a = coord.register_tenant("ramped");
  const int b = coord.register_tenant("contender");
  coord.arm_tenant(a);
  EXPECT_EQ(coord.request(a, 6, 1.0), 6);  // a ramps to 6 at t=0
  clock.set(1.0);
  coord.arm_tenant(b);
  // b outpressures a, and raw arbitration would hand it 7 of 8. But a's
  // grant is 1 s old (< hold window): a keeps its ramp, b gets the rest.
  EXPECT_EQ(coord.request(b, 8, 5.0), 2);
  EXPECT_EQ(coord.granted(a), 6);
  EXPECT_EQ(coord.total_granted(), 8);  // budget stays hard under the hold
  // Past the window the reclaim proceeds as the policy dictates.
  clock.set(12.0);
  EXPECT_EQ(coord.request(b, 8, 5.0), 7);
  EXPECT_EQ(coord.granted(a), 1);
}

TEST(Coordinator, HoldNeverBlocksSelfRequestedDecrease) {
  ManualClock clock(0.0);
  ResizableThreadPool pool(1, 16, &clock);
  LpBudgetCoordinator coord(pool, 8, &clock);
  coord.set_preemption_hold(10.0);
  const int a = coord.register_tenant();
  coord.arm_tenant(a);
  EXPECT_EQ(coord.request(a, 6, 1.0), 6);
  clock.set(1.0);
  // The tenant's own halving decision applies immediately; the hold only
  // guards against OTHER tenants reclaiming a fresh ramp.
  EXPECT_EQ(coord.request(a, 3, -0.2), 3);
}

TEST(Coordinator, ReleaseDropsHoldProtectionImmediately) {
  // The disarm→re-arm leak regression: a released grant must return to the
  // budget at once (no hold), and its protection must not survive into a
  // later incarnation of the id.
  ManualClock clock(0.0);
  ResizableThreadPool pool(1, 16, &clock);
  LpBudgetCoordinator coord(pool, 8, &clock);
  coord.set_preemption_hold(10.0);
  const int a = coord.register_tenant();
  const int b = coord.register_tenant();
  coord.arm_tenant(a);
  EXPECT_EQ(coord.request(a, 6, 1.0), 6);
  clock.set(1.0);  // well inside the hold window
  coord.release(a);
  EXPECT_EQ(coord.granted(a), 0);  // reclaim is immediate, hold or not
  EXPECT_EQ(coord.total_granted(), 0);
  EXPECT_EQ(pool.tenant_grant(a), 0);  // the pool's dispatch weight too
  // A contender arriving right after sees the full budget — no stale
  // protection reserves the released 6.
  coord.arm_tenant(b);
  EXPECT_EQ(coord.request(b, 8, 0.1), 8);
}

/// Drive one controller over the deterministic paper-§4 replay (virtual
/// time), optionally routed through a coordinator, and return its actions.
std::vector<AutonomicController::Action> replay_actions(bool coordinated) {
  PaperExampleReplay replay(0.5);
  ManualClock clock(0.0);
  ResizableThreadPool pool(2, 24, &clock);  // the example runs at LP = 2
  std::optional<LpBudgetCoordinator> coord;
  AutonomicController ctl(pool, replay.trackers(), &clock);
  if (coordinated) {
    coord.emplace(pool, /*budget=*/0, &clock);  // budget = pool max
    ctl.bind_coordinator(&*coord, coord->register_tenant("solo"));
  }
  ctl.arm(/*wct_goal=*/100.0);  // the paper's closing remark: LP 3 meets 100
  for (const TimePoint t : {10.0, 25.0, 40.0, 55.0, 70.0, 85.0, 100.0, 115.0}) {
    clock.set(t);
    replay.replay_until(t);
    ctl.evaluate_now();
  }
  ctl.disarm();
  return ctl.actions();
}

TEST(Coordinator, SingleArmedControllerMatchesUncoordinatedByteForByte) {
  const auto plain = replay_actions(false);
  const auto sharded = replay_actions(true);
  ASSERT_FALSE(plain.empty());  // the scripted goal forces at least one action
  ASSERT_EQ(plain.size(), sharded.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_DOUBLE_EQ(plain[i].t, sharded[i].t);
    EXPECT_EQ(plain[i].from_lp, sharded[i].from_lp);
    EXPECT_EQ(plain[i].to_lp, sharded[i].to_lp);
    EXPECT_EQ(plain[i].reason, sharded[i].reason);
    EXPECT_DOUBLE_EQ(plain[i].best_effort_wct, sharded[i].best_effort_wct);
    EXPECT_DOUBLE_EQ(plain[i].current_lp_wct, sharded[i].current_lp_wct);
  }
  // And the paper's published outcome: the controller raises LP 2 -> 3 to
  // meet the 100 s goal.
  EXPECT_EQ(plain.front().from_lp, 2);
  EXPECT_EQ(plain.front().to_lp, 3);
}

TEST(Coordinator, GoalPressureIsRelativeMiss) {
  Decision d;
  d.current_lp_wct = 0.0;
  EXPECT_DOUBLE_EQ(goal_pressure(d, 10.0, 0.0), 0.0);  // warming up
  d.current_lp_wct = 15.0;
  EXPECT_DOUBLE_EQ(goal_pressure(d, 10.0, 0.0), 0.5);  // late by half the window
  d.current_lp_wct = 8.0;
  EXPECT_DOUBLE_EQ(goal_pressure(d, 10.0, 0.0), -0.2);  // slack
  // Same absolute miss, tighter window => higher pressure.
  d.current_lp_wct = 15.0;
  EXPECT_GT(goal_pressure(d, 10.0, 5.0), goal_pressure(d, 10.0, 0.0));
}

// ------------------------------------------- remote provision failures --

/// Deterministic remote rig: FakeTransport + manual pump on a virtual clock.
struct RemoteRig {
  ManualClock clock;
  FakeTransportFactory factory;
  RemoteWorkerBackend backend;

  explicit RemoteRig(FakeFaultPlan plan)
      : factory(std::move(plan), &clock), backend(factory, config(&clock)) {}

  static RemoteBackendConfig config(const Clock* clock) {
    RemoteBackendConfig rc;
    rc.max_workers = 8;
    rc.manual_pump = true;
    rc.clock = clock;
    rc.name = "fake";
    return rc;
  }
};

TEST(Coordinator, ProvisionFailureReclaimsStrandedGrant) {
  // A tenant is granted LP whose remote provision fails: without the
  // reclaim, the grant would stay charged against the budget forever —
  // capacity nobody can use. The failure hook must shrink the grant back to
  // what actually exists and free the budget for a tenant that CAN
  // provision.
  FakeFaultPlan plan;
  plan.fail_next_provisions = 1;  // the first grow fails, later ones join
  RemoteRig rig(plan);
  ResizableThreadPool pool(2, 8);
  pool.set_backend(&rig.backend);
  LpBudgetCoordinator coord(pool, 8);
  const int a = coord.register_tenant("a");
  coord.arm_tenant(a);
  EXPECT_EQ(coord.granted(a), 2);  // solo tenant inherits the pool target
  EXPECT_EQ(coord.request(a, 6, 1.0), 6);
  EXPECT_EQ(pool.effective_lp(), 2);  // the grow is pending...
  rig.backend.pump();                 // ...and fails
  EXPECT_EQ(pool.target_lp(), 2);     // pool: request abandoned
  EXPECT_EQ(coord.granted(a), 2);     // coordinator: grant clawed back
  EXPECT_EQ(coord.total_granted(), 2);
  // The reclaim is in the history (auditable), not a silent decay.
  const auto history = coord.history(a);
  ASSERT_FALSE(history.empty());
  EXPECT_EQ(history.back().from_grant, 6);
  EXPECT_EQ(history.back().to_grant, 2);
  // The freed budget is really usable: after A leaves, B provisions fine.
  coord.release(a);
  coord.unregister_tenant(a);
  const int b = coord.register_tenant("b");
  coord.arm_tenant(b);
  EXPECT_EQ(coord.request(b, 4, 2.0), 4);
  rig.backend.pump();  // joins land this time
  EXPECT_EQ(pool.effective_lp(), 4);
  EXPECT_EQ(coord.granted(b), 4);
  coord.release(b);
  pool.set_backend(nullptr);
}

TEST(Coordinator, SynchronousProvisionRefusalReclaimsInline) {
  // A backend can refuse a grow SYNCHRONOUSLY (capacity cap): the failure
  // handler then runs on the coordinator's own thread, re-entering the
  // coordinator from inside arbitrate's set_target_lp. This must reclaim
  // inline — not deadlock — and the caller must observe the reclaimed
  // grant.
  FakeFaultPlan plan;
  RemoteRig rig(plan);  // max_workers = 8 in the backend config...
  ResizableThreadPool pool(2, 16);
  pool.set_backend(&rig.backend);
  rig.backend.pump();  // initial sessions join (latency 0)
  LpBudgetCoordinator coord(pool, 12);
  const int a = coord.register_tenant("a");
  coord.arm_tenant(a);
  // Desired 12 > the backend's 8-worker capacity: provision() returns
  // kFailed without ever going pending.
  const int granted = coord.request(a, 12, 1.0);
  EXPECT_EQ(granted, 2);  // reclaimed to the effective LP, inline
  EXPECT_EQ(coord.granted(a), 2);
  EXPECT_EQ(pool.target_lp(), 2);
  EXPECT_EQ(pool.provision_failures(), 1u);
  // Within capacity everything still works.
  EXPECT_EQ(coord.request(a, 6, 1.0), 6);
  rig.backend.pump();
  EXPECT_EQ(pool.effective_lp(), 6);
  coord.release(a);
  pool.set_backend(nullptr);
}

TEST(Coordinator, PermanentProvisionFailureNeverStrandsBudget) {
  FakeFaultPlan plan;
  plan.fail_next_provisions = 1000;  // provisioning never succeeds
  RemoteRig rig(plan);
  ResizableThreadPool pool(2, 8);
  pool.set_backend(&rig.backend);
  LpBudgetCoordinator coord(pool, 8);
  const int a = coord.register_tenant("a");
  coord.arm_tenant(a);
  for (int round = 0; round < 3; ++round) {
    coord.request(a, 6, 1.0);  // keeps retrying, keeps failing
    rig.backend.pump();
    EXPECT_EQ(coord.granted(a), 2) << "round " << round;
    EXPECT_EQ(coord.total_granted(), 2) << "round " << round;
    EXPECT_EQ(pool.target_lp(), 2) << "round " << round;
  }
  EXPECT_EQ(pool.provision_failures(), 3u);
  coord.release(a);
  EXPECT_EQ(coord.total_granted(), 0);  // release still returns everything
  pool.set_backend(nullptr);
}

}  // namespace
}  // namespace askel
