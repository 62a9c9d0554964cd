#pragma once
// Deterministic arbitration-quality harness for the policy family.
//
// The PR 4 estimator harness (est/quality.hpp) grades estimators by replaying
// a seeded duration stream; this is the same idea one layer up. A seeded
// tenant-demand trace — per-round desired LP and goal pressure for a small
// armed population with drifting load — is replayed through each
// ArbitrationPolicy against a fixed budget, and the resulting grants are
// scored: how often did a pressured tenant come up short, how far short, and
// how much did grants churn round to round. Identical seeds give identical
// traces and therefore an identical score per policy, so tests can anchor on
// the ranking (the adaptive policy must beat the weighted fill it boosts on
// miss rate for the default trace) without any tolerance games.
//
// Pressure feedback: a tenant granted less than it desired while pressured
// stays pressured next round (its backlog did not clear); a fully granted
// tenant's pressure decays. That closed loop is what gives an adaptive policy
// something to learn from — under a static policy the same starving tenant
// misses every round.

#include <cstdint>
#include <memory>
#include <vector>

#include "autonomic/arbitration.hpp"

namespace askel {

/// One round of the replay: the demand vector the coordinator would have
/// assembled from its active set.
struct DemandRound {
  std::vector<TenantDemand> demands;
};

/// One policy's arbitration quality over a replayed trace.
struct PolicyQuality {
  std::string policy;
  long rounds = 0;
  long pressured_rows = 0;   // rows arbitrated with pressure > 0
  long misses = 0;           // pressured rows granted less than desired
  double miss_rate = 0.0;    // misses / pressured_rows (0 when none)
  double mean_shortfall = 0.0;  // mean (desired - grant) over misses, in LP
  double churn = 0.0;        // mean |grant - previous grant| per row
};

/// Deterministic demand trace: `tenants` tenants share a budget under
/// piecewise-constant load regimes (shifts every ~16 rounds) with one
/// designated "bursty" tenant whose desired LP spikes several-fold for short
/// windows. Pressure starts proportional to unmet demand and then evolves via
/// the feedback rule in replay_policy. Same seed, same trace.
std::vector<DemandRound> demand_trace(std::uint64_t seed, int tenants,
                                      int rounds, int budget);

/// Replay `trace` through `policy` against `budget`, closing the pressure
/// feedback loop (shortfall sustains pressure, full grants decay it), and
/// score the grants. The policy may be stateful (AdaptiveWeightPolicy) — a
/// fresh instance per replay keeps runs independent.
PolicyQuality replay_policy(ArbitrationPolicy& policy, int budget,
                            const std::vector<DemandRound>& trace);

/// Replay the trace under every policy and return qualities sorted by
/// miss_rate ascending, ties by mean_shortfall then by input order (stable,
/// so the ranking is deterministic for a fixed seed).
std::vector<PolicyQuality> rank_policies(
    const std::vector<ArbitrationPolicy*>& policies, int budget,
    const std::vector<DemandRound>& trace);

}  // namespace askel
