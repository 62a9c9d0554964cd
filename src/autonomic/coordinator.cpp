#include "autonomic/coordinator.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace askel {

LpBudgetCoordinator::LpBudgetCoordinator(ResizableThreadPool& pool, int budget,
                                         const Clock* clock)
    : pool_(pool), clock_(clock),
      policy_(std::make_unique<DeadlinePressurePolicy>()) {
  budget_ = budget > 0 ? std::min(budget, pool_.max_lp()) : pool_.max_lp();
  pool_.set_lp_limit(budget_);
  // Remote backends can refuse a grow; without this hook the refused LP
  // would stay granted forever — budget stranded on a tenant that can never
  // use it. The handler runs with no pool lock held (lock order: coordinator
  // mutex above the pool's).
  pool_.set_provision_failure_handler([this](int failed_target, int effective) {
    on_provision_failed(failed_target, effective);
  });
}

LpBudgetCoordinator::~LpBudgetCoordinator() {
  // Unhook first: a provisioning thread must not call into a dying
  // coordinator (callers quiesce pending grows before destruction).
  pool_.set_provision_failure_handler(nullptr);
  // Give the pool back its full range; grants die with the coordinator —
  // including the per-tenant dispatch weights, so a later coordinator (or
  // none) never schedules against this one's stale grant vector. Nonzero
  // grants live only on active-set entries, so this never scans the
  // registry.
  for (const auto& [id, a] : active_) {
    if (a.grant != 0) pool_.set_tenant_grant(id, 0);
  }
  pool_.set_lp_limit(pool_.max_lp());
}

void LpBudgetCoordinator::on_provision_failed(int failed_target, int effective) {
  (void)failed_target;  // the reclaim is driven by what actually exists
  std::lock_guard lock(arb_mu_);
  const int cap = std::max(1, effective);
  if (total_granted_ <= cap) return;
  // Claw back the LP that never materialized: ascending pressure with a
  // 1-thread floor per armed tenant — the same degradation order arbitration
  // uses when the budget shrinks. The freed grant returns to the budget for
  // whoever requests next (and can actually be provisioned). Only the
  // active set carries grants, so the claw-back is O(active).
  std::vector<std::pair<int, ActiveTenant*>> asc;
  asc.reserve(active_.size());
  for (auto& [id, a] : active_) {
    if (a.grant > 0) asc.emplace_back(id, &a);
  }
  std::stable_sort(asc.begin(), asc.end(), [](const auto& x, const auto& y) {
    return x.second->pressure < y.second->pressure;
  });
  const TimePoint now = clock_->now();
  for (const auto& [id, ap] : asc) {
    if (total_granted_ <= cap) break;
    ActiveTenant& a = *ap;
    const int cut = std::min(a.grant - 1, total_granted_ - cap);
    if (cut <= 0) continue;
    push_history_locked(
        TenantAction{now, id, a.desired, a.grant, a.grant - cut, a.pressure});
    a.grant -= cut;
    total_granted_ -= cut;
    // A phantom grant earns no preemption-hold protection.
    a.last_grow = kNeverGrew;
    pool_.set_tenant_grant(id, a.grant);
  }
}

int LpBudgetCoordinator::budget() const {
  std::lock_guard lock(arb_mu_);
  return budget_;
}

void LpBudgetCoordinator::set_budget(int b) {
  std::lock_guard lock(arb_mu_);
  budget_ = b > 0 ? std::min(b, pool_.max_lp()) : pool_.max_lp();
  pool_.set_lp_limit(budget_);
  arbitrate_locked();
}

void LpBudgetCoordinator::set_policy(std::unique_ptr<ArbitrationPolicy> policy) {
  std::lock_guard lock(arb_mu_);
  policy_ = policy != nullptr ? std::move(policy)
                              : std::make_unique<DeadlinePressurePolicy>();
  arbitrate_locked();
}

std::string LpBudgetCoordinator::policy_name() const {
  std::lock_guard lock(arb_mu_);
  return policy_->name();
}

void LpBudgetCoordinator::set_preemption_hold(Duration d) {
  std::lock_guard lock(arb_mu_);
  preemption_hold_ = std::max(0.0, d);
}

Duration LpBudgetCoordinator::preemption_hold() const {
  std::lock_guard lock(arb_mu_);
  return preemption_hold_;
}

int LpBudgetCoordinator::register_tenant(std::string name) {
  // Recycle a freed id when any shard has one (the lock-free counter probe
  // keeps the common no-free case at 16 relaxed loads); otherwise take a
  // fresh slot from the next round-robin shard. Either way exactly one
  // shard mutex is touched — registration never serializes behind
  // arbitration or behind other shards' traffic.
  for (int s = 0; s < kRegistryShards; ++s) {
    RegistryShard& sh = shards_[static_cast<std::size_t>(s)];
    if (sh.free_count.load(std::memory_order_relaxed) == 0) continue;
    std::lock_guard lock(sh.mu);
    if (sh.free_slots.empty()) continue;
    const int slot = sh.free_slots.back();
    sh.free_slots.pop_back();
    sh.free_count.fetch_sub(1, std::memory_order_relaxed);
    Tenant& t = sh.slots[static_cast<std::size_t>(slot)];
    t = Tenant{};  // grant-free by construction: unregister dropped it
    t.name = std::move(name);
    t.registered = true;
    sh.registered.fetch_add(1, std::memory_order_relaxed);
    return id_of(s, slot);
  }
  const int s = static_cast<int>(next_shard_.fetch_add(
                    1, std::memory_order_relaxed) %
                static_cast<unsigned>(kRegistryShards));
  RegistryShard& sh = shards_[static_cast<std::size_t>(s)];
  std::lock_guard lock(sh.mu);
  const int slot = static_cast<int>(sh.slots.size());
  Tenant t;
  t.name = std::move(name);
  t.registered = true;
  sh.slots.push_back(std::move(t));
  sh.registered.fetch_add(1, std::memory_order_relaxed);
  return id_of(s, slot);
}

void LpBudgetCoordinator::unregister_tenant(int tenant) {
  if (tenant < 1) return;
  RegistryShard& sh = shards_[static_cast<std::size_t>(shard_of(tenant))];
  std::lock_guard slock(sh.mu);
  Tenant* t = slot_locked(tenant);
  if (t == nullptr) return;
  const bool was_armed = t->armed;
  *t = Tenant{};  // registered = false; weight/group reset for the next user
  if (was_armed) {
    // Only an armed tenant owns arbitration state; a cold unregister stays
    // entirely on its shard.
    std::lock_guard alock(arb_mu_);
    drop_active_locked(tenant);
    arbitrate_locked();  // survivors take over the returned grant
  }
  // Drop the pool's accounting/dispatch state for the dead id so the exact
  // side map stays bounded by live tenants. Best-effort: a tenant whose last
  // tasks are still draining keeps its state (the recycled id simply
  // reclaims it on its next use — the pre-retirement behavior).
  pool_.retire_tenant(tenant);
  sh.free_slots.push_back(slot_of(tenant));
  sh.free_count.fetch_add(1, std::memory_order_relaxed);
  sh.registered.fetch_sub(1, std::memory_order_relaxed);
}

void LpBudgetCoordinator::set_tenant_weight(int tenant, int weight) {
  if (tenant < 1) return;
  RegistryShard& sh = shards_[static_cast<std::size_t>(shard_of(tenant))];
  std::lock_guard slock(sh.mu);
  Tenant* t = slot_locked(tenant);
  if (t == nullptr) return;
  t->weight = std::max(1, weight);
  if (!t->armed) return;  // picked up by the next arm
  std::lock_guard alock(arb_mu_);
  const auto it = active_.find(tenant);
  if (it == active_.end()) return;
  it->second.weight = t->weight;
  arbitrate_locked();
}

int LpBudgetCoordinator::tenant_weight(int tenant) const {
  if (tenant < 1) return 0;
  const RegistryShard& sh = shards_[static_cast<std::size_t>(shard_of(tenant))];
  std::lock_guard lock(sh.mu);
  const Tenant* t = slot_locked(tenant);
  return t == nullptr ? 0 : t->weight;
}

void LpBudgetCoordinator::set_tenant_group(int tenant, int group) {
  if (tenant < 1) return;
  RegistryShard& sh = shards_[static_cast<std::size_t>(shard_of(tenant))];
  std::lock_guard slock(sh.mu);
  Tenant* t = slot_locked(tenant);
  if (t == nullptr) return;
  t->group = std::max(0, group);
  if (!t->armed) return;
  std::lock_guard alock(arb_mu_);
  const auto it = active_.find(tenant);
  if (it == active_.end()) return;
  it->second.group = t->group;
  arbitrate_locked();
}

int LpBudgetCoordinator::tenant_group(int tenant) const {
  if (tenant < 1) return 0;
  const RegistryShard& sh = shards_[static_cast<std::size_t>(shard_of(tenant))];
  std::lock_guard lock(sh.mu);
  const Tenant* t = slot_locked(tenant);
  return t == nullptr ? 0 : t->group;
}

void LpBudgetCoordinator::set_group_weight(int group, int weight) {
  if (group < 1) return;
  std::lock_guard lock(arb_mu_);
  if (weight <= 1) {
    group_weights_.erase(group);  // default weight; keep the table sparse
  } else {
    group_weights_[group] = weight;
  }
  arbitrate_locked();
}

int LpBudgetCoordinator::group_weight(int group) const {
  std::lock_guard lock(arb_mu_);
  const auto it = group_weights_.find(group);
  return it == group_weights_.end() ? 1 : it->second;
}

int LpBudgetCoordinator::arm_tenant(int tenant) {
  if (tenant < 1) return 0;
  RegistryShard& sh = shards_[static_cast<std::size_t>(shard_of(tenant))];
  std::lock_guard slock(sh.mu);
  Tenant* t = slot_locked(tenant);
  if (t == nullptr) return 0;
  t->armed = true;
  std::lock_guard alock(arb_mu_);
  ActiveTenant& a = active_.try_emplace(tenant).first->second;
  // Others, not the tenant itself: a solo tenant re-arming (new goal, same
  // run pattern) must keep inheriting the pool target, like a fresh arm.
  const int armed_others = static_cast<int>(active_.size()) - 1;
  a.weight = t->weight;
  a.group = t->group;
  // A solo tenant inherits the pool's current target, so one coordinated
  // controller starts from exactly the state an uncoordinated one reads.
  // Joiners start at the paper's initial LP of 1 until their first decision.
  a.desired = armed_others == 0 ? std::max(1, pool_.target_lp()) : 1;
  a.pressure = 0.0;
  // A fresh arm earns no preemption-hold protection from a previous
  // incarnation's ramp (the disarm→re-arm stale-grant leak).
  a.last_grow = kNeverGrew;
  arbitrate_locked();
  return a.grant;
}

int LpBudgetCoordinator::request(int tenant, int desired, double pressure) {
  // The hot path: armed tenants live on the active-set index, so a request
  // touches only the arbitration lock — never a registry shard — and costs
  // O(active), independent of registrations.
  std::lock_guard lock(arb_mu_);
  const auto it = active_.find(tenant);
  if (it == active_.end()) return 0;
  it->second.desired = std::max(1, desired);
  it->second.pressure = pressure;
  arbitrate_locked();
  return it->second.grant;
}

void LpBudgetCoordinator::release(int tenant) {
  if (tenant < 1) return;
  RegistryShard& sh = shards_[static_cast<std::size_t>(shard_of(tenant))];
  std::lock_guard slock(sh.mu);
  Tenant* t = slot_locked(tenant);
  if (t == nullptr || !t->armed) return;
  t->armed = false;
  std::lock_guard alock(arb_mu_);
  // The protection dies with the grant: the drop zeroes it unconditionally
  // (hold only ever applies to armed tenants), and a later re-arm must not
  // inherit this incarnation's grow timestamp — the entry itself is erased.
  drop_active_locked(tenant);
  arbitrate_locked();
}

int LpBudgetCoordinator::granted(int tenant) const {
  std::lock_guard lock(arb_mu_);
  const auto it = active_.find(tenant);
  return it == active_.end() ? 0 : it->second.grant;
}

int LpBudgetCoordinator::total_granted() const {
  std::lock_guard lock(arb_mu_);
  return total_granted_;
}

int LpBudgetCoordinator::peak_total_granted() const {
  std::lock_guard lock(arb_mu_);
  return peak_total_;
}

int LpBudgetCoordinator::armed_tenants() const {
  std::lock_guard lock(arb_mu_);
  return static_cast<int>(active_.size());
}

int LpBudgetCoordinator::registered_tenants() const {
  int total = 0;
  for (const RegistryShard& sh : shards_) {
    total += sh.registered.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<int> LpBudgetCoordinator::active_tenants() const {
  std::lock_guard lock(arb_mu_);
  std::vector<int> out;
  out.reserve(active_.size());
  for (const auto& [id, a] : active_) out.push_back(id);
  return out;
}

std::vector<LpBudgetCoordinator::TenantAction> LpBudgetCoordinator::history()
    const {
  std::lock_guard lock(arb_mu_);
  return history_;
}

std::vector<LpBudgetCoordinator::TenantAction> LpBudgetCoordinator::history(
    int tenant) const {
  std::lock_guard lock(arb_mu_);
  std::vector<TenantAction> out;
  for (const TenantAction& a : history_) {
    if (a.tenant == tenant) out.push_back(a);
  }
  return out;
}

void LpBudgetCoordinator::drop_active_locked(int tenant) {
  const auto it = active_.find(tenant);
  if (it == active_.end()) return;
  ActiveTenant& a = it->second;
  if (a.grant != 0) {
    push_history_locked(
        TenantAction{clock_->now(), tenant, 0, a.grant, 0, 0.0});
    total_granted_ -= a.grant;
    pool_.set_tenant_grant(tenant, 0);
  }
  active_.erase(it);
}

void LpBudgetCoordinator::arbitrate_locked() {
  const TimePoint now = clock_->now();

  // Demands straight off the active-set index, iterated in id order (the
  // registration-order tie-break the policies document). O(active); the
  // registry shards are never touched, so arbitration cost is flat in
  // registrations.
  const std::size_t n = active_.size();
  std::vector<int> ids;
  std::vector<ActiveTenant*> ents;
  std::vector<TenantDemand> demands;
  ids.reserve(n);
  ents.reserve(n);
  demands.reserve(n);
  for (auto& [id, a] : active_) {
    int gw = 1;  // the policy reads it only for a grouped tenant
    if (a.group > 0) {
      const auto it = group_weights_.find(a.group);
      if (it != group_weights_.end()) gw = it->second;
    }
    ids.push_back(id);
    ents.push_back(&a);
    demands.push_back(
        TenantDemand{id, a.desired, a.pressure, a.weight, a.grant, a.group, gw});
  }

  std::vector<int> grants(n, 0);
  if (n != 0) {
    policy_->arbitrate(budget_, demands, grants);
    // Defensive clamp: a policy must never mint LP; trim from the back so a
    // buggy policy degrades deterministically instead of busting the budget.
    int sum = 0;
    for (int& g : grants) {
      g = std::max(0, g);
      sum += g;
    }
    for (std::size_t k = grants.size(); sum > budget_ && k-- > 0;) {
      const int cut = std::min(grants[k], sum - budget_);
      grants[k] -= cut;
      sum -= cut;
    }

    // Preemption-cost hold: a tenant whose grant the policy shrank, but who
    // grew within the window and still wants the LP, keeps min(current,
    // desired) — reclaiming a fresh ramp-up wastes warm caches and pending
    // provisioning, so the contender waits the window out. Self-requested
    // decreases (desired < current) are never blocked. The budget stays
    // hard: overshoot is clawed back in ascending-pressure order, first
    // from unprotected tenants down to their 1-thread floor, then by
    // stripping protections back to the raw policy grants.
    if (preemption_hold_ > 0.0) {
      const std::vector<int> raw = grants;
      std::vector<char> held(grants.size(), 0);
      int total = sum;
      for (std::size_t k = 0; k < grants.size(); ++k) {
        const ActiveTenant& a = *ents[k];
        const int keep = std::min(a.grant, a.desired);
        if (grants[k] < keep && now - a.last_grow < preemption_hold_) {
          total += keep - grants[k];
          grants[k] = keep;
          held[k] = 1;
        }
      }
      if (total > budget_) {
        std::vector<std::size_t> asc(grants.size());
        std::iota(asc.begin(), asc.end(), std::size_t{0});
        std::stable_sort(asc.begin(), asc.end(),
                         [&](std::size_t a, std::size_t b) {
                           return demands[a].pressure < demands[b].pressure;
                         });
        for (const bool strip_held : {false, true}) {
          for (const std::size_t k : asc) {
            if (total <= budget_) break;
            if (static_cast<bool>(held[k]) != strip_held) continue;
            const int floor = strip_held ? raw[k] : std::min(raw[k], 1);
            const int cut = std::min(grants[k] - floor, total - budget_);
            if (cut > 0) {
              grants[k] -= cut;
              total -= cut;
            }
          }
        }
      }
    }
  }

  // Apply: record changes, stamp grow times, and install the changed grants
  // into the pool in ONE batch so the weighted dispatch schedules against
  // them. All under arb_mu_ — reclaim is serialized with every in-flight
  // grant installation, so the pool never holds a mix of old and new
  // vectors.
  std::vector<std::pair<int, int>> changed;
  for (std::size_t k = 0; k < n; ++k) {
    ActiveTenant& a = *ents[k];
    const int g = grants[k];
    if (g != a.grant) {
      push_history_locked(
          TenantAction{now, ids[k], a.desired, a.grant, g, a.pressure});
      if (g > a.grant) a.last_grow = now;
      total_granted_ += g - a.grant;
      a.grant = g;
      changed.emplace_back(ids[k], g);
    }
  }
  peak_total_ = std::max(peak_total_, total_granted_);
  if (!changed.empty()) pool_.set_tenant_grants(changed);
  // Actuate the aggregate. With no armed tenant the pool keeps its last
  // target — the same "disarm leaves the LP alone" semantics as the
  // uncoordinated controller.
  if (total_granted_ > 0) pool_.set_target_lp(total_granted_);
}

void LpBudgetCoordinator::push_history_locked(TenantAction action) {
  // Bounded history: a long-lived coordinator re-arbitrates on every
  // request, so the log keeps only the most recent ~kMaxHistory actions
  // (dropped in halves to stay amortized O(1)).
  if (history_.size() >= kMaxHistory) {
    history_.erase(history_.begin(),
                   history_.begin() + static_cast<long>(kMaxHistory / 2));
  }
  history_.push_back(action);
}

const LpBudgetCoordinator::Tenant* LpBudgetCoordinator::slot_locked(
    int tenant) const {
  if (tenant < 1) return nullptr;
  const RegistryShard& sh = shards_[static_cast<std::size_t>(shard_of(tenant))];
  const std::size_t slot = static_cast<std::size_t>(slot_of(tenant));
  if (slot >= sh.slots.size()) return nullptr;
  const Tenant& t = sh.slots[slot];
  return t.registered ? &t : nullptr;
}

LpBudgetCoordinator::Tenant* LpBudgetCoordinator::slot_locked(int tenant) {
  return const_cast<Tenant*>(std::as_const(*this).slot_locked(tenant));
}

}  // namespace askel
