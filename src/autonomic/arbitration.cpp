#include "autonomic/arbitration.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace askel {

void DeadlinePressurePolicy::arbitrate(int budget,
                                       const std::vector<TenantDemand>& demands,
                                       std::vector<int>& grants) const {
  // Pressure order: widest relative goal miss first; ties go to the
  // earlier-registered tenant (demands arrive in registration order, and the
  // sort is stable — identical to the PR 2 in-coordinator sort).
  std::vector<std::size_t> order(demands.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return demands[a].pressure > demands[b].pressure;
                   });

  // Pass 1 — floor: one thread each, in pressure order, while budget lasts
  // (progress for every tenant the budget can possibly cover). Pass 2 —
  // top-up toward each tenant's desired LP, again in pressure order, so
  // contested LP goes to the widest relative miss.
  int remaining = budget;
  for (const std::size_t i : order) {
    if (remaining == 0) break;
    grants[i] = 1;
    --remaining;
  }
  for (const std::size_t i : order) {
    if (remaining == 0) break;
    const int want = std::min(demands[i].desired, budget) - grants[i];
    const int add = std::min(want, remaining);
    if (add > 0) {
      grants[i] += add;
      remaining -= add;
    }
  }
}

namespace {

/// The water-fill: floors one unit at a time in descending (weight,
/// pressure, order) priority — when the budget cannot cover one thread
/// each, the heavier classes win — then repeatedly +1 to the unsatisfied
/// item with the lowest grant/weight ratio (ties toward higher pressure,
/// then earlier order), so steady-state grants converge to budget * weight /
/// total_weight, capped at desired (the freed share flows to the rest).
/// O(budget * items) — both are small. Returns the unspent remainder.
struct FillItem {
  int desired = 0;
  int weight = 1;
  double pressure = 0.0;
};

int water_fill(int budget, const std::vector<FillItem>& items,
               std::vector<int>& out) {
  out.assign(items.size(), 0);
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (items[a].weight != items[b].weight) {
                       return items[a].weight > items[b].weight;
                     }
                     return items[a].pressure > items[b].pressure;
                   });
  int remaining = budget;
  for (const std::size_t i : order) {
    if (remaining == 0) break;
    if (items[i].desired <= 0) continue;
    out[i] = 1;
    --remaining;
  }
  while (remaining > 0) {
    std::size_t pick = items.size();
    double pick_ratio = 0.0;
    for (const std::size_t i : order) {
      if (out[i] >= std::min(items[i].desired, budget)) continue;
      const double ratio = static_cast<double>(out[i]) /
                           static_cast<double>(std::max(1, items[i].weight));
      if (pick == items.size() || ratio < pick_ratio) {
        pick = i;
        pick_ratio = ratio;
      }
    }
    if (pick == items.size()) break;  // everyone capped at desired
    ++out[pick];
    --remaining;
  }
  return remaining;
}

}  // namespace

void WeightedSharePolicy::arbitrate(int budget,
                                    const std::vector<TenantDemand>& demands,
                                    std::vector<int>& grants) const {
  // Level 1 — group the demand rows. A real group (id > 0) aggregates its
  // members; an ungrouped tenant is its own singleton group carrying its
  // tenant weight, so an all-ungrouped vector is one flat weighted fill.
  struct Group {
    std::vector<std::size_t> members;
    FillItem item;  // desired = sum of member desired, weight = group weight
  };
  std::vector<Group> groups;
  std::unordered_map<int, std::size_t> by_id;  // group id > 0 -> groups index
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const TenantDemand& d = demands[i];
    std::size_t gi;
    if (d.group > 0) {
      const auto [it, inserted] = by_id.try_emplace(d.group, groups.size());
      gi = it->second;
      if (inserted) {
        groups.push_back(Group{});
        groups[gi].item.weight = std::max(1, d.group_weight);
      }
    } else {
      gi = groups.size();
      groups.push_back(Group{});
      groups[gi].item.weight = std::max(1, d.weight);
    }
    Group& g = groups[gi];
    g.members.push_back(i);
    g.item.desired =
        std::min(budget, g.item.desired + std::min(d.desired, budget));
    g.item.pressure = std::max(g.item.pressure, d.pressure);
  }

  // Level 2 — water-fill the budget across groups by group weight...
  std::vector<FillItem> group_items;
  group_items.reserve(groups.size());
  for (const Group& g : groups) group_items.push_back(g.item);
  std::vector<int> group_budget;
  water_fill(budget, group_items, group_budget);

  // ...then each group's share among its members by member weight.
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const Group& g = groups[gi];
    std::vector<FillItem> members(g.members.size());
    for (std::size_t k = 0; k < g.members.size(); ++k) {
      const TenantDemand& d = demands[g.members[k]];
      members[k] = FillItem{std::min(d.desired, budget), std::max(1, d.weight),
                            d.pressure};
    }
    std::vector<int> member_grants;
    water_fill(group_budget[gi], members, member_grants);
    for (std::size_t k = 0; k < g.members.size(); ++k) {
      grants[g.members[k]] = member_grants[k];
    }
  }
}

}  // namespace askel
