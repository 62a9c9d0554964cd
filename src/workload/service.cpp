#include "workload/service.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <thread>
#include <utility>

#include "autonomic/controller.hpp"
#include "autonomic/coordinator.hpp"
#include "util/zipf.hpp"
#include "workload/calibrated.hpp"

namespace askel {
namespace {

/// SplitMix64 finalizer: decorrelates (seed, tenant) into a stream seed so
/// adjacent tenants never share a random sequence.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t h = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

/// Bounded-Pareto service demand with the configured mean. For shape a > 1
/// the (unbounded) Pareto mean is a*x_m/(a-1), so x_m = mean*(a-1)/a; the cap
/// truncates the far tail, pulling the realized mean slightly under `mean` —
/// acceptable, the tail shape is what the scenario is about.
double sample_work(std::mt19937_64& rng, double mean, double shape,
                   double cap) {
  if (!(mean > 0.0)) return 0.0;
  const double a = std::max(1.05, shape);
  const double x_m = mean * (a - 1.0) / a;
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const double u = std::max(1e-12, 1.0 - u01(rng));  // (0, 1], never 0
  const double x = x_m * std::pow(u, -1.0 / a);
  return std::min(x, std::max(x_m, cap));
}

/// Exact quantile of a sorted sample (nearest-rank).
double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto idx = static_cast<std::size_t>(
      std::min(n - 1.0, std::max(0.0, std::ceil(q * n) - 1.0)));
  return sorted[idx];
}

}  // namespace

std::vector<double> bursty_stream(std::uint64_t seed, int n) {
  // mt19937_64 with fixed distributions: the C++ standard pins the engine's
  // output sequence, and uniform_real_distribution on a fixed libstdc++/
  // libc++ is stable in practice. The hashes est_test and service_test pin
  // over this stream hold for one standard library; another may need new
  // ones.
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> base_pick(0.5, 2.0);
  std::uniform_real_distribution<double> jitter(0.85, 1.15);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> spike(4.0, 9.0);
  std::uniform_int_distribution<int> regime_len(25, 55);

  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  double base = base_pick(rng);
  int left = regime_len(rng);
  for (int k = 0; k < n; ++k) {
    if (left-- <= 0) {
      base = base_pick(rng);
      left = regime_len(rng);
    }
    double v = base * jitter(rng);
    if (unit(rng) < 0.05) v = base * spike(rng);  // the outlier tail
    out.push_back(v);
  }
  return out;
}

std::vector<ServiceRequest> generate_service_stream(
    const ServiceStreamConfig& cfg) {
  std::vector<ServiceRequest> out;
  const int tenants = std::max(1, cfg.tenants);
  const double duration = std::max(0.0, cfg.duration_s);
  if (duration <= 0.0 || cfg.total_rate_hz <= 0.0) return out;

  ZipfDistribution zipf(static_cast<std::size_t>(tenants), cfg.zipf_skew);
  const std::vector<double> rates = zipf.rates(cfg.total_rate_hz);

  // Piecewise-constant bursty envelope, shared by every tenant (a traffic
  // burst hits the whole service) and normalized to mean 1.0 so the expected
  // request count matches the nominal rate.
  std::vector<double> envelope(
      static_cast<std::size_t>(std::max(1, cfg.rate_buckets)), 1.0);
  if (cfg.bursty) {
    const std::vector<double> raw =
        bursty_stream(mix_seed(cfg.seed, 0xB00B5), static_cast<int>(envelope.size()));
    const double mean =
        std::accumulate(raw.begin(), raw.end(), 0.0) / static_cast<double>(raw.size());
    for (std::size_t i = 0; i < envelope.size(); ++i) {
      envelope[i] = mean > 0.0 ? raw[i] / mean : 1.0;
    }
  }
  const double env_max = *std::max_element(envelope.begin(), envelope.end());
  const double bucket_len = duration / static_cast<double>(envelope.size());
  const double amp = std::clamp(cfg.diurnal_amplitude, 0.0, 1.0);
  const double period = std::max(1e-9, cfg.diurnal_period_s);

  const auto rate_at = [&](double base, double t) {
    const auto b = std::min(envelope.size() - 1,
                            static_cast<std::size_t>(t / bucket_len));
    const double diurnal = 1.0 + amp * std::sin(2.0 * M_PI * t / period);
    return std::max(0.0, base * diurnal * envelope[b]);
  };

  for (int k = 0; k < tenants; ++k) {
    const double base = rates[static_cast<std::size_t>(k)];
    // Thinning (Lewis & Shedler): candidates at the envelope's peak rate,
    // accepted with probability rate(t)/rate_max — an exact non-homogeneous
    // Poisson process, still one deterministic draw sequence per tenant.
    const double rate_max = base * (1.0 + amp) * env_max;
    if (rate_max <= 0.0) continue;
    std::mt19937_64 rng(mix_seed(cfg.seed, static_cast<std::uint64_t>(k)));
    std::exponential_distribution<double> gap(rate_max);
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    for (double t = gap(rng); t < duration; t += gap(rng)) {
      if (u01(rng) * rate_max > rate_at(base, t)) continue;
      out.push_back(ServiceRequest{
          k, t,
          sample_work(rng, cfg.mean_service_s, cfg.service_shape,
                      cfg.service_cap_s)});
    }
  }
  std::sort(out.begin(), out.end(), [](const ServiceRequest& a,
                                       const ServiceRequest& b) {
    return a.arrival != b.arrival ? a.arrival < b.arrival : a.tenant < b.tenant;
  });
  return out;
}

namespace {

/// Per-tenant latency log: (arrival, latency) pairs, filled concurrently by
/// completing workers.
struct TenantLog {
  std::mutex mu;
  std::vector<std::pair<double, double>> samples;
};

}  // namespace

ServiceScenarioResult run_service_scenario(const ServiceScenarioConfig& cfg) {
  const int tenants = std::max(1, cfg.stream.tenants);
  std::vector<ServiceTenantSpec> specs(static_cast<std::size_t>(tenants));
  for (std::size_t k = 0; k < specs.size() && k < cfg.specs.size(); ++k) {
    specs[k] = cfg.specs[k];
  }
  const std::vector<ServiceRequest> stream = generate_service_stream(cfg.stream);

  ResizableThreadPool pool(std::max(1, cfg.initial_lp), std::max(1, cfg.max_lp));
  std::optional<LpBudgetCoordinator> coord;
  if (cfg.coordinated) {
    coord.emplace(pool, cfg.budget);
    coord->set_policy(std::make_unique<WeightedSharePolicy>());
  } else {
    // Baseline: identical capacity, none of the autonomic stack — FIFO
    // dispatch (tags become pure accounting) and the pool pinned at max LP.
    pool.set_tenant_dispatch(TenantDispatch::kFifo);
    pool.set_target_lp(std::max(1, cfg.max_lp));
  }

  // Tenant ids: coordinator-issued when coordinated, 1-based indices when
  // not (the pool accepts any positive id for accounting/queueing).
  std::vector<int> ids(static_cast<std::size_t>(tenants), 0);
  // Controllers need a TrackerSet by contract even though SLO mode never
  // snapshots it; each tenant gets an (idle) registry + tracker pair.
  std::vector<std::unique_ptr<EstimateRegistry>> regs;
  std::vector<std::unique_ptr<TrackerSet>> tracker_sets;
  std::vector<std::unique_ptr<AutonomicController>> controllers(
      static_cast<std::size_t>(tenants));
  for (int k = 0; k < tenants; ++k) {
    const auto kk = static_cast<std::size_t>(k);
    ids[kk] = coord ? coord->register_tenant("svc-" + std::to_string(k)) : k + 1;
    // Service requests are independent arrivals, not a task tree: serve each
    // tenant's queue oldest-first so queueing delay is FIFO, not LIFO.
    pool.set_tenant_ordering(ids[kk], TenantOrdering::kFifo);
    if (!coord || specs[kk].tail_goal_s <= 0.0) continue;
    regs.push_back(std::make_unique<EstimateRegistry>());
    tracker_sets.push_back(std::make_unique<TrackerSet>(*regs.back()));
    ControllerConfig ccfg;
    ccfg.min_interval = std::max(0.0, cfg.controller_min_interval);
    controllers[kk] = std::make_unique<AutonomicController>(
        pool, *tracker_sets.back(), &default_clock(), ccfg);
    controllers[kk]->set_sla_weight(specs[kk].weight);
    controllers[kk]->bind_coordinator(&*coord, ids[kk]);
    controllers[kk]->arm_slo(specs[kk].tail_goal_s, cfg.max_lp,
                             cfg.tail_quantile);
  }

  // Aggressor: floods its own tenant queue for the whole stream, bounded to
  // a standing backlog; under the coordinator it also claims near-maximal
  // pressure (a lying batch tenant).
  const int aggr_id = coord ? coord->register_tenant("aggressor") : tenants + 1;
  std::atomic<bool> stop_flood{false};
  std::atomic<long> flood_done{0};
  std::atomic<int> flood_outstanding{0};
  std::thread flooder;
  if (cfg.aggressor) {
    if (coord) {
      coord->arm_tenant(aggr_id);
      coord->request(aggr_id, pool.max_lp(), /*pressure=*/25.0);
    }
    flooder = std::thread([&] {
      const double work = std::max(0.0, cfg.aggressor_work_s);
      const int bound = std::max(1, cfg.aggressor_outstanding);
      while (!stop_flood.load(std::memory_order_acquire)) {
        if (flood_outstanding.load(std::memory_order_relaxed) < bound) {
          flood_outstanding.fetch_add(1, std::memory_order_relaxed);
          pool.submit(
              [&, work] {
                simulate_work(work);
                flood_done.fetch_add(1, std::memory_order_relaxed);
                flood_outstanding.fetch_sub(1, std::memory_order_relaxed);
              },
              aggr_id);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }

  std::vector<TenantLog> logs(static_cast<std::size_t>(tenants));
  const TimePoint t0 = default_clock().now();

  // Open-loop replay: submit each request at its scheduled arrival, never
  // waiting for earlier completions. Latency is measured from the SCHEDULED
  // arrival, so dispatcher jitter and queueing both count against the SLO —
  // the open-loop methodology that avoids coordinated omission.
  for (const ServiceRequest& req : stream) {
    const TimePoint due = t0 + req.arrival;
    const Duration wait = due - default_clock().now();
    if (wait > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    const auto kk = static_cast<std::size_t>(req.tenant);
    AutonomicController* ctl = controllers[kk].get();
    TenantLog* log = &logs[kk];
    const double arrival = req.arrival;
    const double work = req.work;
    pool.submit(
        [ctl, log, due, arrival, work] {
          simulate_work(work);
          const Duration latency = default_clock().now() - due;
          {
            std::lock_guard lock(log->mu);
            log->samples.emplace_back(arrival, latency);
          }
          if (ctl != nullptr) ctl->record_latency(latency);
        },
        ids[kk]);
  }

  // Stream over: stop the flood, drain everything (bounded backlog + the
  // remaining service requests), then read the logs race-free.
  stop_flood.store(true, std::memory_order_release);
  if (flooder.joinable()) flooder.join();
  pool.wait_idle();
  const TimePoint t1 = default_clock().now();

  ServiceScenarioResult res;
  res.duration = t1 - t0;
  res.aggressor_tasks = flood_done.load();
  if (coord) {
    res.peak_total_granted = coord->peak_total_granted();
    res.budget_held = res.peak_total_granted <= coord->budget();
  }

  const int buckets = std::max(1, cfg.curve_buckets);
  const double horizon = std::max(1e-9, cfg.stream.duration_s);
  for (int k = 0; k < tenants; ++k) {
    const auto kk = static_cast<std::size_t>(k);
    ServiceTenantResult tr;
    tr.tenant = k;
    tr.tail_goal = specs[kk].tail_goal_s;
    std::vector<std::pair<double, double>>& samples = logs[kk].samples;
    tr.requests = static_cast<long>(samples.size());
    res.total_requests += tr.requests;
    std::vector<double> lat;
    lat.reserve(samples.size());
    for (const auto& [arrival, latency] : samples) lat.push_back(latency);
    std::sort(lat.begin(), lat.end());
    tr.exact_tail = sorted_quantile(lat, cfg.tail_quantile);
    tr.exact_median = sorted_quantile(lat, 0.5);
    if (controllers[kk] != nullptr) {
      tr.est_tail = controllers[kk]->tail_snapshot().tail;
    }
    if (tr.tail_goal > 0.0 && !samples.empty()) {
      long met = 0;
      std::vector<long> bucket_total(static_cast<std::size_t>(buckets), 0);
      std::vector<long> bucket_met(static_cast<std::size_t>(buckets), 0);
      for (const auto& [arrival, latency] : samples) {
        const auto b = std::min<std::size_t>(
            static_cast<std::size_t>(buckets) - 1,
            static_cast<std::size_t>(arrival / horizon *
                                     static_cast<double>(buckets)));
        ++bucket_total[b];
        const bool ok = latency <= tr.tail_goal;
        met += ok;
        bucket_met[b] += ok;
      }
      tr.attainment =
          static_cast<double>(met) / static_cast<double>(samples.size());
      for (int b = 0; b < buckets; ++b) {
        const auto bb = static_cast<std::size_t>(b);
        if (bucket_total[bb] == 0) continue;
        tr.attainment_curve.push_back(
            Sample{(b + 0.5) * horizon / buckets,
                   static_cast<double>(bucket_met[bb]) /
                       static_cast<double>(bucket_total[bb])});
      }
    }
    if (coord) {
      for (const auto& a : coord->history(ids[kk])) {
        tr.peak_grant = std::max(tr.peak_grant, a.to_grant);
      }
    }
    res.tenants.push_back(std::move(tr));
  }

  // Teardown in dependency order: controllers release their grants, then the
  // aggressor's, then ids. (The coordinator's destructor would also zero the
  // grants, but being explicit keeps the history readable.)
  for (auto& ctl : controllers) {
    if (ctl != nullptr) ctl->disarm();
  }
  if (coord) {
    if (cfg.aggressor) coord->release(aggr_id);
    coord->unregister_tenant(aggr_id);
    for (const int id : ids) coord->unregister_tenant(id);
  }
  return res;
}

}  // namespace askel
