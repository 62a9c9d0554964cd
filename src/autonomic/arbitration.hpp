#pragma once
// ArbitrationPolicy: how the LP-budget coordinator splits a contested budget
// between armed tenants. Pulled out of the coordinator so alternatives can be
// A/B'd on bench/multi_tenant (--policy) without touching the grant
// bookkeeping, history, pool installation or preemption-hold logic — those
// stay in LpBudgetCoordinator, which calls exactly one policy per
// arbitration.
//
// Two policies ship, both pure, stateless functions of the demand vector,
// unit-testable without threads:
//  * DeadlinePressurePolicy — PR 2's behavior, verbatim: 1-thread floor in
//    pressure order while the budget lasts, then top-up toward each tenant's
//    desired LP, widest relative goal miss first;
//  * WeightedSharePolicy — SLA classes, hierarchical: the budget is
//    water-filled across tenant GROUPS by group weight first, then each
//    group's share among its members by member weight. An ungrouped tenant
//    (group 0) is its own singleton group carrying its tenant weight, so
//    ungrouped tenants get floors by weight, then one thread at a time to
//    the lowest grant/weight ratio: steady-state grants are proportional to
//    weight (capped at desired, with leftovers redistributed). Unlike
//    pressure, a tenant cannot game it by inflating its own reported miss.

#include <memory>
#include <string>
#include <vector>

namespace askel {

/// One armed tenant's demand at arbitration time.
struct TenantDemand {
  int tenant = 0;         // coordinator id (history/debugging only)
  int desired = 1;        // the tenant's requested LP
  double pressure = 0.0;  // relative goal miss (goal_pressure, decision.hpp)
  int weight = 1;         // SLA class weight (>= 1; WeightedSharePolicy)
  int current_grant = 0;  // the grant going into this arbitration
  int group = 0;          // hierarchical group id (0 = ungrouped)
  int group_weight = 1;   // the group's weight (read only when group > 0)
};

class ArbitrationPolicy {
 public:
  virtual ~ArbitrationPolicy() = default;
  virtual std::string name() const = 0;
  /// Fill `grants[i]` (>= 0) for `demands[i]`; sum(grants) <= budget. Called
  /// under the coordinator's lock — must not call back into it or the pool.
  virtual void arbitrate(int budget, const std::vector<TenantDemand>& demands,
                         std::vector<int>& grants) const = 0;
};

class DeadlinePressurePolicy final : public ArbitrationPolicy {
 public:
  std::string name() const override { return "deadline-pressure"; }
  void arbitrate(int budget, const std::vector<TenantDemand>& demands,
                 std::vector<int>& grants) const override;
};

/// Two-level water-fill: budget across groups by group weight, then within
/// each group by member weight (ties toward higher pressure, then demand
/// order). Group weights arrive on the demand rows (`group_weight`, filled by
/// the coordinator from its group table); an inconsistent vector — two rows
/// of one group disagreeing — resolves to the first row's value.
class WeightedSharePolicy final : public ArbitrationPolicy {
 public:
  std::string name() const override { return "weighted-share"; }
  void arbitrate(int budget, const std::vector<TenantDemand>& demands,
                 std::vector<int>& grants) const override;
};

}  // namespace askel
