#pragma once
// Continuous-service workload family: open-loop request streams with
// tail-latency (SLO) goals — the latency-domain counterpart of the batch
// wordcount scenarios.
//
// The paper's evaluation is batch: one skeleton instance, one WCT deadline.
// Long-running services face the transposed problem — an endless stream of
// small requests where the goal is "p99 latency stays under X", and the
// autonomic layer must keep granting enough LP to hold the quantile down as
// the arrival rate moves. This family models that:
//
//  * generate_service_stream: a seeded, fully deterministic open-loop
//    request schedule. The aggregate arrival rate is split across tenants by
//    Zipf popularity (util/zipf.hpp — hot tenants get proportionally more
//    traffic), modulated by a diurnal sine and an optional bursty envelope
//    (bursty_stream below), and realized per tenant as a thinned
//    non-homogeneous Poisson process. Service demands are bounded-Pareto
//    (heavy-tailed, like real request costs). Same seed, same stream —
//    byte for byte.
//
//  * run_service_scenario: replays a stream against a shared pool in real
//    time (open loop: requests are submitted at their scheduled arrival
//    whether or not earlier ones finished, so overload shows up as queueing
//    latency, exactly like a real service). SLO tenants get an
//    AutonomicController armed via arm_slo() — completed requests feed its
//    P² tail tracker and grants respond to tail pressure — while
//    `coordinated` toggles the whole autonomic stack against a
//    FIFO/fixed-LP baseline for A/B attainment comparisons
//    (bench/service_bench.cpp, tests/service_test.cpp).

#include <cstdint>
#include <vector>

#include "util/clock.hpp"
#include "util/time_series.hpp"

namespace askel {

struct ServiceStreamConfig {
  std::uint64_t seed = 1;
  int tenants = 2;
  /// Open-loop horizon, seconds: arrivals are scheduled in [0, duration_s).
  double duration_s = 2.0;
  /// Aggregate arrival rate across all tenants (requests/second), split by
  /// Zipf popularity rank — tenant 0 is the hottest.
  double total_rate_hz = 200.0;
  double zipf_skew = 1.0;
  /// Service-demand distribution: bounded Pareto with this mean and tail
  /// exponent, capped at service_cap_s (heavy-tailed but never unbounded).
  double mean_service_s = 0.004;
  double service_shape = 1.5;
  double service_cap_s = 0.05;
  /// Diurnal modulation: rate(t) *= 1 + amplitude * sin(2*pi*t / period).
  /// 0 disables (amplitude is clamped to [0, 1]).
  double diurnal_amplitude = 0.0;
  double diurnal_period_s = 1.0;
  /// Multiply the rate by a piecewise-constant bursty envelope (regime
  /// shifts + spikes) replayed from bursty_stream, normalized to mean 1 so
  /// the expected request count is unchanged.
  bool bursty = false;
  int rate_buckets = 8;
};

/// One scheduled request of the open-loop stream.
struct ServiceRequest {
  int tenant = 0;        // 0-based index into the stream's tenants
  double arrival = 0.0;  // seconds from stream start
  double work = 0.0;     // service demand (seconds of calibrated work)
};

/// Deterministic request schedule, sorted by arrival time.
std::vector<ServiceRequest> generate_service_stream(
    const ServiceStreamConfig& cfg);

/// Deterministic bursty duration stream: piecewise-constant base levels
/// (regime shifts every ~40 samples), multiplicative jitter, and a ~5% rate
/// of outlier spikes at several times the base. Same seed, same stream.
std::vector<double> bursty_stream(std::uint64_t seed, int n);

/// Per-tenant goal/weight of a scenario run.
struct ServiceTenantSpec {
  /// Tail-latency SLO in seconds; 0 = best-effort (no controller armed).
  double tail_goal_s = 0.0;
  /// SLA weight forwarded to the coordinator's WeightedSharePolicy.
  int weight = 1;
};

struct ServiceScenarioConfig {
  ServiceStreamConfig stream;
  /// Per-tenant specs; missing entries default to best-effort weight 1.
  std::vector<ServiceTenantSpec> specs;
  double tail_quantile = 0.99;
  int initial_lp = 1;
  int max_lp = 8;
  /// Coordinator budget (0 = max_lp). Both runs of an A/B pair see the same
  /// pool capacity; only the autonomic stack differs.
  int budget = 0;
  /// true: weighted dispatch + WeightedSharePolicy coordinator + one SLO
  /// controller per goal-carrying tenant. false: the baseline — FIFO
  /// dispatch, no coordinator, LP pinned at max_lp (same capacity, no
  /// isolation and no tail-driven grants).
  bool coordinated = true;
  /// Batch aggressor sharing the pool: floods sleep-calibrated tasks under
  /// its own tenant id for the whole stream (bounded standing backlog), and
  /// under the coordinator claims maximal pressure — the antagonist the SLO
  /// tenant must hold its tail against.
  bool aggressor = false;
  double aggressor_work_s = 0.005;
  int aggressor_outstanding = 256;
  /// Controller evaluation throttle, seconds (SLO evaluations are driven by
  /// request completions, which arrive much faster than batch events).
  Duration controller_min_interval = 0.005;
  /// Buckets of the per-tenant attainment-over-time curve.
  int curve_buckets = 8;
};

struct ServiceTenantResult {
  int tenant = 0;          // 0-based stream index
  double tail_goal = 0.0;  // 0 = best-effort
  long requests = 0;
  /// Exact quantiles over the full latency log (sorted), seconds.
  double exact_tail = 0.0;
  double exact_median = 0.0;
  /// The controller's P² estimate at the end of the run (0 when
  /// best-effort/baseline — no tracker ran).
  double est_tail = 0.0;
  /// Fraction of requests with latency <= tail_goal (1.0 when best-effort).
  double attainment = 1.0;
  /// Attainment per arrival-time bucket: (bucket midpoint seconds, fraction
  /// of that bucket's requests meeting the goal). Empty when best-effort.
  std::vector<Sample> attainment_curve;
  /// Highest LP the coordinator ever granted this tenant (0 when baseline).
  int peak_grant = 0;
};

struct ServiceScenarioResult {
  double duration = 0.0;  // wall-clock of the replay, seconds
  long total_requests = 0;
  long aggressor_tasks = 0;
  int peak_total_granted = 0;  // 0 when baseline
  bool budget_held = true;
  std::vector<ServiceTenantResult> tenants;
};

/// Replay the configured stream in real time and measure per-tenant SLO
/// attainment. Deterministic in its schedule; latencies are wall-clock.
ServiceScenarioResult run_service_scenario(const ServiceScenarioConfig& cfg);

}  // namespace askel
