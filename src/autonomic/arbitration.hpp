#pragma once
// ArbitrationPolicy: how the LP-budget coordinator splits a contested budget
// between armed tenants. Pulled out of the coordinator so alternatives can be
// A/B'd on bench/multi_tenant (--policy) without touching the grant
// bookkeeping, history, pool installation or preemption-hold logic — those
// stay in LpBudgetCoordinator, which calls exactly one policy per
// arbitration.
//
// A policy is a deterministic function of the demand vector, unit-testable
// without threads. Three ship:
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
//  * AdaptiveWeightPolicy — nudges per-tenant effective weights from
//    goal-miss history (pressure > 0 across consecutive arbitrations boosts
//    a tenant's weight, slack decays it back to the configured base) and
//    arbitrates through a WeightedSharePolicy. Deterministic: the boost
//    table is a pure function of the arbitrate() call sequence. The only
//    stateful member — the coordinator serializes arbitrations under its
//    lock, which is the thread-safety the mutable state relies on.
//
// DeadlinePressure / WeightedShare are pure and stateless.

#include <memory>
#include <string>
#include <unordered_map>
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

/// Learns per-tenant weight boosts from goal-miss history and arbitrates
/// through a WeightedSharePolicy with the boosted weights. A tenant
/// arbitrated with pressure above `miss_threshold` gains `step * pressure`
/// boost (clamped to [1, max_boost]); one arbitration at or below the
/// threshold decays it by `decay` toward 1. Boosts for tenants absent from a
/// demand vector are dropped (state stays O(armed); a disarm→re-arm cycle
/// starts over from the base weight).
class AdaptiveWeightPolicy final : public ArbitrationPolicy {
 public:
  struct Config {
    double step = 0.5;           // boost gained per unit of pressure
    double decay = 0.25;         // boost lost per slack arbitration
    double max_boost = 8.0;      // boost ceiling (multiplier on base weight)
    double miss_threshold = 0.0; // pressure above this counts as a miss
  };

  AdaptiveWeightPolicy();
  explicit AdaptiveWeightPolicy(Config cfg);

  std::string name() const override { return "adaptive-weight"; }
  void arbitrate(int budget, const std::vector<TenantDemand>& demands,
                 std::vector<int>& grants) const override;

  /// Current boost multiplier for `tenant` (1.0 when unknown) — tests and
  /// bench introspection.
  double boost(int tenant) const;

 private:
  Config cfg_;
  WeightedSharePolicy weighted_;
  // Updated inside const arbitrate(): the policy contract runs arbitrations
  // serialized under the coordinator's lock, never concurrently.
  mutable std::unordered_map<int, double> boosts_;
};

}  // namespace askel
