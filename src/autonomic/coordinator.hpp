#pragma once
// LpBudgetCoordinator: arbitrates one pool-wide LP budget between many
// per-skeleton AutonomicControllers (the sharded MAPE loop).
//
// PR 1 made snapshots O(1) and the pool contention-free so that N controllers
// — one per skeleton/tenant, each with its own TrackerSet and goal — can plan
// independently. What they cannot do independently is actuate: the pool has
// one LP, and the paper's "maximum LP [that] avoids overloading the system"
// must hold for the sum of all tenants. The coordinator owns that sum.
//
// Scale shape (PR 7): the coordinator is built for millions of REGISTERED
// tenants of which only thousands are ARMED at any instant. Registration
// state lives in kRegistryShards independently locked shards (id -> shard is
// a fixed modulo, so register/unregister of one tenant never serializes
// behind another shard's traffic — or behind arbitration). Armed tenants are
// indexed in an active set owned by the arbitration lock; every arbitration
// walks ONLY that set, never the registry, so arbitration cost is
// O(active · log active) and flat in registrations (bench/
// coordinator_scale_bench pins 1M registered / 10K armed within 2x of
// 10K / 10K).
//
// Contract:
//  * sum of per-tenant grants <= budget() <= pool.max_lp(), always — the
//    coordinator also installs the budget as the pool's lp_limit, so the cap
//    holds even against direct set_target_lp callers;
//  * contested LP is split by the pluggable ArbitrationPolicy. Two ship:
//    DeadlinePressurePolicy (default) — widest relative goal miss first with
//    a 1-thread floor; WeightedSharePolicy splits by SLA-class weight,
//    hierarchically — budget across groups by group weight, water-fill
//    within;
//  * every grant change is ALSO installed into the pool's per-tenant grant
//    vector (batched through `set_tenant_grants`), which drives the pool's
//    weighted dispatch — grants are scheduling isolation, not just planning
//    numbers;
//  * preemption-cost awareness: LP a tenant grew within the last
//    `preemption_hold()` window is not reclaimed by other tenants' demands
//    (the requester waits the window out); the tenant's own requested
//    decreases always apply, and the budget stays a hard cap. Hold
//    protection dies with the grant: release/arm reset the grow timestamp,
//    so a disarm→re-arm cycle can never re-install a stale protected grant;
//  * disarm (release) and unregister return a tenant's grant to the pool
//    immediately and re-arbitrate the survivors;
//  * a single armed tenant with budget == pool.max_lp() is always granted
//    exactly what it asks for, so one coordinated controller reproduces the
//    uncoordinated controller's decisions verbatim.
//
// Locking (see docs/coordinator.md for the full table): registry shard
// mutexes < arbitration mutex < pool locks, always in that order. Lifecycle
// operations (register/arm/release/unregister/weight/group) take their
// tenant's shard lock, and only the ones that change the armed set take the
// arbitration lock after it. The hot path — request()/granted() from an
// armed controller — takes ONLY the arbitration lock. The pool never calls
// back into the coordinator except the provision-failure handler, which
// takes only the arbitration lock (recursive: a synchronous refusal re-enters
// on the arbitrating thread), so the order is acyclic.

#include <array>
#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "autonomic/arbitration.hpp"
#include "runtime/thread_pool.hpp"
#include "util/clock.hpp"

namespace askel {

class LpBudgetCoordinator {
 public:
  /// Registration state is striped over this many independently locked
  /// shards; tenant id -> shard is (id - 1) % kRegistryShards.
  static constexpr int kRegistryShards = 16;

  /// `budget` 0 = use pool.max_lp(); otherwise clamped to [1, pool.max_lp()].
  /// Installs the budget as the pool's lp_limit for the coordinator's
  /// lifetime (restored to pool.max_lp() on destruction, and every tenant
  /// grant is zeroed in the pool — grants die with the coordinator).
  explicit LpBudgetCoordinator(ResizableThreadPool& pool, int budget = 0,
                               const Clock* clock = &default_clock());
  ~LpBudgetCoordinator();

  LpBudgetCoordinator(const LpBudgetCoordinator&) = delete;
  LpBudgetCoordinator& operator=(const LpBudgetCoordinator&) = delete;

  int budget() const;
  /// Re-arbitrates immediately; shrinking may reduce existing grants.
  void set_budget(int b);

  /// Swap the arbitration policy (nullptr restores the default
  /// DeadlinePressurePolicy) and re-arbitrate under the new one.
  void set_policy(std::unique_ptr<ArbitrationPolicy> policy);
  /// Name of the active policy (for logs/bench JSON).
  std::string policy_name() const;

  /// Don't let OTHER tenants reclaim LP a tenant grew within the last `d`
  /// seconds (preemption cost: a fresh ramp-up is warm caches and pending
  /// provisioning; reclaiming it immediately wastes both). 0 (default)
  /// disables the hold. The budget stays hard: when protections cannot fit,
  /// they are stripped lowest-pressure-first.
  void set_preemption_hold(Duration d);
  Duration preemption_hold() const;

  /// The pool whose LP this coordinator owns (grants actuate here).
  ResizableThreadPool& pool() const { return pool_; }

  /// Tenant ids are small positive integers. Ids of unregistered tenants
  /// are REUSED by later registrations (a long-lived coordinator serving a
  /// stream of runs stays O(live tenants)), so callers must not touch an id
  /// after unregistering it. `name` is for the action history only.
  /// O(1) amortized, touches one registry shard — never the arbitration
  /// lock.
  int register_tenant(std::string name = {});
  /// Releases the tenant's grant (if armed), retires the pool's per-tenant
  /// accounting state (when already drained), and recycles the id. A
  /// never-armed tenant unregisters without touching the arbitration lock.
  void unregister_tenant(int tenant);

  /// SLA class weight (>= 1, default 1) used by WeightedSharePolicy;
  /// re-arbitrates immediately when the tenant is armed. Survives
  /// release/re-arm, reset on unregister (ids are recycled into fresh
  /// tenants).
  void set_tenant_weight(int tenant, int weight);
  int tenant_weight(int tenant) const;

  /// Hierarchical group membership (group >= 1; 0 = ungrouped, the default).
  /// Under WeightedSharePolicy the budget is split across groups by
  /// group weight first, then within the group by tenant weight. Like the
  /// tenant weight: survives release/re-arm, reset on unregister,
  /// re-arbitrates immediately when armed.
  void set_tenant_group(int tenant, int group);
  int tenant_group(int tenant) const;

  /// Weight of a group (>= 1, default 1), used by WeightedSharePolicy for
  /// the cross-group split. Setting it re-arbitrates.
  void set_group_weight(int group, int weight);
  int group_weight(int group) const;

  /// Tenant goes live. Its initial desired LP is the pool's current target
  /// (what a freshly armed uncoordinated controller would reason from), so a
  /// single tenant starts exactly where today's controller starts. Returns
  /// the initial grant.
  int arm_tenant(int tenant);

  /// Update the tenant's desired LP and deadline pressure, re-arbitrate, and
  /// return the tenant's (possibly unchanged) grant. The grant may be less
  /// than `desired` under contention, and may later shrink further when a
  /// higher-pressure tenant requests — the tenant re-reads granted() on its
  /// next evaluation. Takes only the arbitration lock: O(active), not
  /// O(registered).
  int request(int tenant, int desired, double pressure);

  /// Tenant disarmed or completed: its grant returns to the budget (and its
  /// preemption-hold protection is dropped with it).
  void release(int tenant);

  int granted(int tenant) const;
  /// Sum of all grants right now (<= budget, invariant). O(1): maintained
  /// incrementally with the active set.
  int total_granted() const;
  /// Highest total_granted ever observed (exact, maintained under the lock).
  int peak_total_granted() const;
  /// Armed tenants right now — the size of the active-set index. O(1).
  int armed_tenants() const;
  /// Registered tenants right now (sums the per-shard counters).
  int registered_tenants() const;
  /// The active-set index itself: armed tenant ids in ascending order.
  /// Tests pin this against the ground-truth armed set under churn.
  std::vector<int> active_tenants() const;

  /// One record per grant change of any tenant (arbitration outcome), in
  /// time order. Bounded: only the most recent ~kMaxHistory records are
  /// kept (a long-lived coordinator re-arbitrates on every request).
  static constexpr std::size_t kMaxHistory = 4096;
  struct TenantAction {
    TimePoint t = 0.0;
    int tenant = 0;
    int requested = 0;   // the tenant's desired LP at arbitration time
    int from_grant = 0;
    int to_grant = 0;
    double pressure = 0.0;
  };
  std::vector<TenantAction> history() const;
  std::vector<TenantAction> history(int tenant) const;

 private:
  /// Registration record: everything a tenant IS between runs. Owned by its
  /// registry shard's mutex; holds no arbitration state.
  struct Tenant {
    std::string name;
    bool registered = false;
    bool armed = false;
    int weight = 1;
    int group = 0;
  };

  struct RegistryShard {
    mutable std::mutex mu;
    std::vector<Tenant> slots;
    std::vector<int> free_slots;       // slot indices awaiting reuse
    std::atomic<int> free_count{0};    // lock-free "any free?" probe
    std::atomic<int> registered{0};    // live tenants in this shard
  };

  /// Arbitration-side record of one ARMED tenant — the active-set entry.
  /// Owned by arb_mu_; exists exactly while the tenant is armed.
  struct ActiveTenant {
    int desired = 0;
    double pressure = 0.0;
    int weight = 1;
    int group = 0;
    int grant = 0;
    /// When this tenant's grant last grew; arm/release reset it to the far
    /// past so hold protection can never outlive the arm that earned it.
    TimePoint last_grow = kNeverGrew;
  };
  static constexpr TimePoint kNeverGrew = -1.0e300;

  static int shard_of(int id) { return (id - 1) % kRegistryShards; }
  static int slot_of(int id) { return (id - 1) / kRegistryShards; }
  static int id_of(int shard, int slot) {
    return slot * kRegistryShards + shard + 1;
  }

  /// Registry record for `tenant`, or nullptr when out of range /
  /// unregistered. Requires the tenant's shard mutex held.
  Tenant* slot_locked(int tenant);
  const Tenant* slot_locked(int tenant) const;

  /// Recompute every ACTIVE tenant's grant (policy + preemption hold),
  /// record grant changes, install changed grants into the pool's weighted
  /// dispatch in one batch, and push the aggregate target to the pool.
  /// O(active · log active); never touches the registry shards.
  void arbitrate_locked();
  /// Zero `tenant`'s grant (recorded) and remove it from the active set.
  void drop_active_locked(int tenant);
  /// Pool provision-failure hook (installed at construction): a grow toward
  /// `failed_target` never materialized, so grants above the `effective` LP
  /// are bookkeeping against capacity that does not exist — claw them back
  /// into the budget (ascending pressure, 1-thread floor) instead of
  /// stranding them on the tenant whose provision failed. The tenant's
  /// desired LP is untouched: its next request retries (the backend may have
  /// recovered), and a permanent failure just repeats the reclaim — budget
  /// never leaks either way.
  void on_provision_failed(int failed_target, int effective);
  void push_history_locked(TenantAction action);

  ResizableThreadPool& pool_;
  const Clock* clock_;

  /// Registration state, striped so register/unregister of cold tenants
  /// never contend with arbitration (or with each other across shards).
  std::array<RegistryShard, kRegistryShards> shards_;
  std::atomic<unsigned> next_shard_{0};  // round-robin for fresh slots

  // Arbitration state. Recursive: a backend that refuses a grow
  // SYNCHRONOUSLY makes pool.set_target_lp (called from arbitrate_locked,
  // arb_mu_ held) invoke the provision-failure handler on this same thread
  // before returning — on_provision_failed must be able to re-enter. The
  // re-entry is safe: arbitrate's grant table is fully written before it
  // actuates the pool, so the reclaim always sees a consistent state.
  mutable std::recursive_mutex arb_mu_;
  int budget_;
  int total_granted_ = 0;
  int peak_total_ = 0;
  std::unique_ptr<ArbitrationPolicy> policy_;
  Duration preemption_hold_ = 0.0;
  /// The active-set index: id -> armed-tenant record, iterated in id order
  /// (the registration-order tie-break the policies document). Maintained
  /// incrementally by arm/release/unregister; arbitration never scans the
  /// registry.
  std::map<int, ActiveTenant> active_;
  std::map<int, int> group_weights_;  // group id -> weight (>= 1)
  std::vector<TenantAction> history_;
};

}  // namespace askel
