// PR 7 scale features: the active-set index under churn (property-tested
// against a ground-truth model) and hierarchical groups.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "autonomic/coordinator.hpp"
#include "runtime/thread_pool.hpp"

namespace askel {
namespace {

// ---------------------------------------------------------------- churn --

// Seeded register/arm/request/release/unregister churn: after every step the
// coordinator's active-set index must equal the ground-truth armed set, the
// registered counter must match the live-id model, and the budget invariant
// must hold. This is the index-maintenance contract the O(active)
// arbitration rests on — a stale entry (or a leaked one) breaks it.
TEST(CoordinatorScale, ChurnKeepsActiveIndexEqualToArmedSet) {
  ResizableThreadPool pool(1, 8);
  LpBudgetCoordinator coord(pool, 8);

  std::mt19937_64 rng(20260808);
  std::set<int> live;   // registered ids
  std::set<int> armed;  // subset of live

  const auto check = [&] {
    ASSERT_EQ(coord.registered_tenants(), static_cast<int>(live.size()));
    ASSERT_EQ(coord.armed_tenants(), static_cast<int>(armed.size()));
    const std::vector<int> expect(armed.begin(), armed.end());
    ASSERT_EQ(coord.active_tenants(), expect);
    ASSERT_LE(coord.total_granted(), coord.budget());
  };

  const auto pick = [&](const std::set<int>& from) {
    std::uniform_int_distribution<std::size_t> d(0, from.size() - 1);
    auto it = from.begin();
    std::advance(it, d(rng));
    return *it;
  };

  for (int step = 0; step < 3000; ++step) {
    switch (rng() % 5) {
      case 0: {  // register
        const int id = coord.register_tenant("churn");
        ASSERT_TRUE(live.insert(id).second) << "id " << id << " double-issued";
        break;
      }
      case 1: {  // arm a registered, unarmed tenant
        std::vector<int> unarmed;
        std::set_difference(live.begin(), live.end(), armed.begin(),
                            armed.end(), std::back_inserter(unarmed));
        if (unarmed.empty()) break;
        const int id = unarmed[rng() % unarmed.size()];
        coord.arm_tenant(id);
        armed.insert(id);
        break;
      }
      case 2: {  // request from an armed tenant
        if (armed.empty()) break;
        const int id = pick(armed);
        coord.request(id, 1 + static_cast<int>(rng() % 8),
                      0.25 * static_cast<double>(rng() % 5));
        break;
      }
      case 3: {  // release an armed tenant
        if (armed.empty()) break;
        const int id = pick(armed);
        coord.release(id);
        armed.erase(id);
        ASSERT_EQ(coord.granted(id), 0);
        break;
      }
      default: {  // unregister any live tenant (armed or not)
        if (live.empty()) break;
        const int id = pick(live);
        coord.unregister_tenant(id);
        live.erase(id);
        armed.erase(id);
        break;
      }
    }
    check();
  }
}

// Nonzero grants may exist only on active-set entries: after releasing
// everything, the pool-visible grant of every id ever used must be zero and
// total_granted must be zero.
TEST(CoordinatorScale, NoGrantOutlivesItsActiveEntry) {
  ResizableThreadPool pool(1, 8);
  LpBudgetCoordinator coord(pool, 8);
  std::vector<int> ids;
  for (int k = 0; k < 32; ++k) ids.push_back(coord.register_tenant());
  for (int id : ids) {
    coord.arm_tenant(id);
    coord.request(id, 4, 1.0);
  }
  for (int id : ids) coord.release(id);
  EXPECT_EQ(coord.total_granted(), 0);
  EXPECT_TRUE(coord.active_tenants().empty());
  for (int id : ids) {
    EXPECT_EQ(coord.granted(id), 0);
    EXPECT_EQ(pool.tenant_grant(id), 0);
  }
}

// -------------------------------------------------------------- grouped --

// With no groups assigned, every tenant is a singleton group carrying its
// own weight, so WeightedSharePolicy must give exactly the grants of the
// flat single-level weighted fill it replaced. The pinned hash is that flat
// fill's grants over these 200 seeded demand vectors (FNV-1a 64, one step
// per grant); a change here is a behaviour change for every ungrouped
// tenant.
TEST(GroupedPolicy, UngroupedReducesToWeightedShare) {
  constexpr std::uint64_t kFlatFillGrantsHash = 0xafa40c85f7bd0bf3ull;
  WeightedSharePolicy weighted;
  std::mt19937_64 rng(7);
  std::uint64_t hash = 14695981039346656037ull;
  for (int iter = 0; iter < 200; ++iter) {
    const int n = 1 + static_cast<int>(rng() % 8);
    const int budget = 1 + static_cast<int>(rng() % 24);
    std::vector<TenantDemand> demands(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      TenantDemand& d = demands[static_cast<std::size_t>(i)];
      d.tenant = i + 1;
      d.desired = 1 + static_cast<int>(rng() % 12);
      d.pressure = 0.5 * static_cast<double>(rng() % 5);
      d.weight = 1 + static_cast<int>(rng() % 4);
      d.group = 0;
    }
    std::vector<int> grants(demands.size(), 0);
    weighted.arbitrate(budget, demands, grants);
    for (const int g : grants) {
      hash ^= static_cast<std::uint64_t>(g);
      hash *= 1099511628211ull;
    }
  }
  EXPECT_EQ(hash, kFlatFillGrantsHash);
}

// Two-level split: the budget goes across groups by GROUP weight, then
// within each group by member weight. Group A (weight 3, two equal members)
// vs group B (weight 1, one member) on budget 16 => 12 / 4 across groups,
// 6+6 within A.
TEST(GroupedPolicy, SplitsAcrossGroupsByGroupWeightThenWithin) {
  WeightedSharePolicy weighted;
  std::vector<TenantDemand> demands(3);
  demands[0] = {.tenant = 1, .desired = 8, .group = 1, .group_weight = 3};
  demands[1] = {.tenant = 2, .desired = 8, .group = 1, .group_weight = 3};
  demands[2] = {.tenant = 3, .desired = 8, .group = 2, .group_weight = 1};
  std::vector<int> grants(3, 0);
  weighted.arbitrate(16, demands, grants);
  EXPECT_EQ(grants[0], 6);
  EXPECT_EQ(grants[1], 6);
  EXPECT_EQ(grants[2], 4);
}

// A group capped at its aggregate desired frees the remainder for the other
// groups, exactly like a desired-capped tenant under WeightedSharePolicy.
TEST(GroupedPolicy, CappedGroupFreesBudgetForOthers) {
  WeightedSharePolicy weighted;
  std::vector<TenantDemand> demands(2);
  demands[0] = {.tenant = 1, .desired = 2, .group = 1, .group_weight = 3};
  demands[1] = {.tenant = 2, .desired = 16, .group = 2, .group_weight = 1};
  std::vector<int> grants(2, 0);
  weighted.arbitrate(16, demands, grants);
  EXPECT_EQ(grants[0], 2);   // capped at desired despite weight 3
  EXPECT_EQ(grants[1], 14);  // the freed share flows over
}

// End to end through the coordinator: group assignments and group weights
// installed via the registry APIs must reach the policy (arbitrate_locked
// builds the demand rows from the active set + group table).
TEST(GroupedPolicy, CoordinatorRoutesGroupStateToPolicy) {
  ResizableThreadPool pool(1, 16);
  LpBudgetCoordinator coord(pool, 16);
  coord.set_policy(std::make_unique<WeightedSharePolicy>());

  const int a = coord.register_tenant("a");
  const int b = coord.register_tenant("b");
  const int c = coord.register_tenant("c");
  coord.set_tenant_group(a, 1);
  coord.set_tenant_group(b, 1);
  coord.set_tenant_group(c, 2);
  coord.set_group_weight(1, 3);
  coord.set_group_weight(2, 1);
  ASSERT_EQ(coord.tenant_group(a), 1);
  ASSERT_EQ(coord.group_weight(1), 3);

  coord.arm_tenant(a);
  coord.arm_tenant(b);
  coord.arm_tenant(c);
  coord.request(a, 8, 0.0);
  coord.request(b, 8, 0.0);
  coord.request(c, 8, 0.0);
  EXPECT_EQ(coord.granted(a), 6);
  EXPECT_EQ(coord.granted(b), 6);
  EXPECT_EQ(coord.granted(c), 4);
  EXPECT_EQ(coord.total_granted(), 16);
}

// Group membership survives release/re-arm (like the SLA weight) and is
// reset when the id is recycled through unregister.
TEST(GroupedPolicy, GroupMembershipSurvivesReArmAndResetsOnRecycle) {
  ResizableThreadPool pool(1, 8);
  LpBudgetCoordinator coord(pool, 8);
  const int t = coord.register_tenant("t");
  coord.set_tenant_group(t, 5);
  coord.arm_tenant(t);
  coord.release(t);
  EXPECT_EQ(coord.tenant_group(t), 5);
  coord.unregister_tenant(t);
  const int reused = coord.register_tenant("fresh");
  ASSERT_EQ(reused, t);  // ids are recycled
  EXPECT_EQ(coord.tenant_group(reused), 0);
}

}  // namespace
}  // namespace askel
