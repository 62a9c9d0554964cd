// service_slo: an open-loop request stream with a p99 SLO, served next to a
// batch aggressor on one coordinated pool. No skeleton runs: the load is
// carried by tenant dispatch, the SLO controller (record_latency /
// decide_slo) and coordinator arbitration.
//
// Shape (bench/service_bench.cpp's, without its bursty envelope): 2 tenants
// with Zipf skew 1.0 — tenant 0 holds a p99 goal of 50 ms at SLA weight 3,
// tenant 1 is best-effort — bounded-Pareto demand (mean 4 ms, cap 50 ms) and
// diurnal amplitude 0.4 over each step. WeightedSharePolicy coordinator,
// budget 8, weighted dispatch, FIFO order inside each tenant. The aggressor
// is 256 self-resubmitting 10 ms tasks under its own tenant, claiming the
// whole budget at high pressure.
//
// The bursty envelope is left off because its rare 4-9x spikes decide the
// result by seed alone: with it, the SLO p50 at 1200 Hz ranged from 3.8 to
// 574 ms over seeds 1-10, so no bound could tell a change from a reseed.
//
// The benchmark's own single generator thread replays one seeded stream per
// step of the rate ladder; each step lasts a third of the run. Latency is
// measured from the scheduled arrival, so generator lateness and queueing
// both count. Each step drains for at most kDrainCapS; requests still
// unfinished then count as failed.

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "askel.hpp"
#include "autonomic/arbitration.hpp"
#include "autonomic/coordinator.hpp"
#include "trace.hpp"
#include "workload/calibrated.hpp"
#include "workload/service.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

constexpr double kLadderHz[] = {600.0, 1200.0, 1800.0};
constexpr int kRungs = static_cast<int>(std::size(kLadderHz));
constexpr double kRungS = kRunSeconds / kRungs;  // each ladder step
constexpr int kRefRung = 1;  // 1200 Hz: the reference rate of most metrics
constexpr double kSloGoalS = 0.050;
constexpr double kMaxRateP99S = 0.060;
constexpr int kSloWeight = 3;
constexpr int kBudget = 8;
constexpr double kAggressorWorkS = 0.010;
constexpr int kAggressorTasks = 256;
constexpr double kAggressorPressure = 25.0;
constexpr double kDrainCapS = 2.0;
constexpr double kSampleEveryS = 0.010;
constexpr double kSpinS = 0.0003;

/// The coordinated service stack plus every rung's stream.
struct Setup {
  askel::ResizableThreadPool pool{1, kBudget};
  askel::LpBudgetCoordinator coord{pool, kBudget};
  int slo_id = 0;
  int be_id = 0;
  int aggr_id = 0;
  askel::EstimateRegistry reg;  // the controller's (idle) tracker pair
  askel::TrackerSet trackers{reg};
  std::unique_ptr<askel::AutonomicController> ctl;
  std::vector<std::vector<askel::ServiceRequest>> streams;
};

std::unique_ptr<Setup> set_up(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  s->coord.set_policy(std::make_unique<askel::WeightedSharePolicy>());
  s->slo_id = s->coord.register_tenant("slo");
  s->be_id = s->coord.register_tenant("best-effort");
  s->aggr_id = s->coord.register_tenant("aggressor");
  s->pool.set_tenant_ordering(s->slo_id, askel::TenantOrdering::kFifo);
  s->pool.set_tenant_ordering(s->be_id, askel::TenantOrdering::kFifo);
  askel::ControllerConfig ccfg;
  ccfg.min_interval = 0.005;  // ServiceScenarioConfig's default throttle
  s->ctl = std::make_unique<askel::AutonomicController>(s->pool, s->trackers,
                                                        &askel::default_clock(), ccfg);
  s->ctl->set_sla_weight(kSloWeight);
  s->ctl->bind_coordinator(&s->coord, s->slo_id);
  for (int r = 0; r < kRungs; ++r) {
    askel::ServiceStreamConfig cfg;
    cfg.seed = mix_seed(seed, 10 + static_cast<std::uint64_t>(r));
    cfg.tenants = 2;
    cfg.duration_s = kRungS;
    cfg.total_rate_hz = kLadderHz[r];
    cfg.zipf_skew = 1.0;
    cfg.mean_service_s = 0.004;
    cfg.service_cap_s = 0.05;
    cfg.diurnal_amplitude = 0.4;
    cfg.diurnal_period_s = kRungS;
    s->streams.push_back(askel::generate_service_stream(cfg));
  }
  return s;
}

/// Self-resubmitting batch tasks: kAggressorTasks of them stay queued or
/// running until stop is raised, then each exits without working.
struct Aggressor {
  askel::ResizableThreadPool* pool = nullptr;
  int tenant = 0;
  std::atomic<bool> stop{false};
  std::atomic<long> done{0};

  void submit() {
    pool->submit([this] { run(); }, tenant);
  }
  void run() {
    if (stop.load(std::memory_order_acquire)) return;
    askel::simulate_work(kAggressorWorkS);
    done.fetch_add(1, std::memory_order_relaxed);
    submit();
  }
};

struct RungResult {
  std::vector<double> slo_lat, be_lat;
  long requests = 0;
  long unfinished = 0;
  double aggressor_per_s = 0.0;
  double grant_mean = 0.0, effective_lp_mean = 0.0, target_lp_mean = 0.0;
  double p2_tail = 0.0;
  long grant_changes = 0;
  long record_latency_calls = 0;
};

/// Per-request completion state, written by the worker that serves it.
struct Inflight {
  explicit Inflight(std::size_t n) : latency(n, 0.0), done(n) {}
  std::vector<double> latency;
  std::vector<std::atomic<int>> done;
  std::atomic<long> completed{0};
};

RungResult run_rung(Setup& s, int rung, Report& rep) {
  const std::vector<askel::ServiceRequest>& stream = s.streams[static_cast<std::size_t>(rung)];
  Inflight in(stream.size());
  RungResult res;
  res.requests = static_cast<long>(stream.size());
  const bool tracing = Tracer::instance().enabled();

  s.ctl->arm_slo(kSloGoalS, kBudget, 0.99);
  s.coord.arm_tenant(s.aggr_id);
  s.coord.request(s.aggr_id, kBudget, kAggressorPressure);
  Aggressor aggr;
  aggr.pool = &s.pool;
  aggr.tenant = s.aggr_id;
  for (int k = 0; k < kAggressorTasks; ++k) aggr.submit();

  askel::AutonomicController* ctl = s.ctl.get();
  std::vector<double> grants, effective, target;
  const askel::TimePoint hist0 = askel::default_clock().now();
  const double t0 = now_s();
  double next_sample = t0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const askel::ServiceRequest& req = stream[i];
    const double due = t0 + req.arrival;
    // Sleep to just short of the arrival, then spin: a sleeping vCPU can
    // take milliseconds to wake, which would bill generator lateness to the
    // system under test.
    const double wait = due - kSpinS - now_s();
    if (wait > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    while (now_s() < due) {
    }
    // now_s() and the tracer read the same steady clock.
    const std::int64_t submit_ns = Tracer::now_ns();
    const double sent = static_cast<double>(submit_ns) / 1e9;
    if (tracing) {
      Tracer::instance().record(SpanKind::kGenLate, static_cast<std::int64_t>(due * 1e9),
                                submit_ns, static_cast<long>(i));
    }
    if (sent >= next_sample) {
      grants.push_back(s.coord.granted(s.slo_id));
      effective.push_back(s.pool.effective_lp());
      target.push_back(s.pool.target_lp());
      next_sample += kSampleEveryS;
    }
    const bool slo = req.tenant == 0;
    const auto id = static_cast<long>(i);
    const double work = req.work;
    Span sp(SpanKind::kSubmit, id);
    s.pool.submit(
        [&in, ctl, slo, id, due, work, submit_ns, tracing] {
          if (tracing && slo) {
            Tracer::instance().record(SpanKind::kQueueWait, submit_ns, Tracer::now_ns(), id);
          }
          {
            Span served(SpanKind::kRequest, id);
            askel::simulate_work(work);
          }
          const double latency = now_s() - due;
          in.latency[static_cast<std::size_t>(id)] = latency;
          in.done[static_cast<std::size_t>(id)].fetch_add(1, std::memory_order_acq_rel);
          in.completed.fetch_add(1, std::memory_order_acq_rel);
          if (slo) {
            Span rl(SpanKind::kRecordLatency, id);
            ctl->record_latency(latency);
          }
        },
        slo ? s.slo_id : s.be_id);
  }
  const double t_end = now_s();
  res.aggressor_per_s = static_cast<double>(aggr.done.load()) / (t_end - t0);
  aggr.stop.store(true, std::memory_order_release);

  const double drain_until = t_end + kDrainCapS;
  while (in.completed.load(std::memory_order_acquire) < res.requests && now_s() < drain_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  res.unfinished = res.requests - in.completed.load(std::memory_order_acquire);
  s.pool.wait_idle();  // the stragglers and the stopped aggressor

  res.p2_tail = s.ctl->tail_snapshot().tail;
  res.record_latency_calls = s.ctl->tail_snapshot().observations;
  s.ctl->disarm();
  s.coord.release(s.aggr_id);
  const askel::TimePoint hist1 = askel::default_clock().now();
  for (const auto& a : s.coord.history(s.slo_id)) {
    res.grant_changes += a.t >= hist0 && a.t <= hist1;
  }

  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (in.done[i].load(std::memory_order_acquire) != 1) {
      rep.violation("service request " + std::to_string(i) + " completed " +
                    std::to_string(in.done[i].load()) + " times");
    }
    (stream[i].tenant == 0 ? res.slo_lat : res.be_lat).push_back(in.latency[i]);
  }
  res.grant_mean = mean(grants);
  res.effective_lp_mean = mean(effective);
  res.target_lp_mean = mean(target);
  return res;
}

}  // namespace

Report run_service_slo(const Options& opt) {
  Report rep;
  double setup_s = 0.0;
  const auto s = set_up_repeatedly([&] { return set_up(opt.seed); }, setup_s);

  const auto run_ladder = [&](int only_rung) {
    std::vector<RungResult> rungs(kRungs);
    for (int r = 0; r < kRungs; ++r) {
      if (only_rung >= 0 && r != only_rung) continue;
      rungs[static_cast<std::size_t>(r)] = run_rung(*s, r, rep);
      rep.attempted += rungs[static_cast<std::size_t>(r)].requests;
      rep.failed += rungs[static_cast<std::size_t>(r)].unfinished;
    }
    return rungs;
  };

  if (!opt.trace) {
    const std::vector<RungResult> rungs = run_ladder(-1);
    const RungResult& ref = rungs[kRefRung];
    rep.set("setup_s", setup_s);
    rep.set("latency_ms_p50", quantile(ref.slo_lat, 0.50) * 1e3);
    // The tail at the lowest rate: at 1200 Hz the p99 sits on the knee and
    // swings with the seed (38-77 ms over seeds 1-10).
    rep.set("latency_ms_p99", quantile(rungs[0].slo_lat, 0.99) * 1e3);
    rep.set("goodput_per_s", ref.aggressor_per_s);
    rep.set("lp_s_per_op", ref.grant_mean * kRungS / static_cast<double>(ref.slo_lat.size()));
  } else {
    const double untraced_p50 = quantile(run_ladder(kRefRung)[kRefRung].slo_lat, 0.5);
    Tracer& tr = Tracer::instance();
    tr.enable(true);
    const long attempted0 = rep.attempted;
    // The service stack's CPU: the process minus this generator thread.
    const double cpu0 = process_cpu_s() - thread_cpu_s();
    const std::vector<RungResult> rungs = run_ladder(-1);
    const double cpu = process_cpu_s() - thread_cpu_s() - cpu0;
    tr.enable(false);
    rep.set("runtime.cpu_ms_per_op",
            cpu / static_cast<double>(rep.attempted - attempted0) * 1e3);
    const RungResult& ref = rungs[kRefRung];
    const SpanStats submit = tr.stats(SpanKind::kSubmit);
    const SpanStats wait = tr.stats(SpanKind::kQueueWait);
    const SpanStats rl = tr.stats(SpanKind::kRecordLatency);
    const double exact_p99 = quantile(ref.slo_lat, 0.99);
    rep.set("est.tail_err_pct", std::abs(ref.p2_tail - exact_p99) / exact_p99 * 100.0);
    rep.set("runtime.lp_mean", ref.target_lp_mean);
    rep.set("runtime.submit_us_p50", submit.p50_us);
    rep.set("runtime.submit_us_p99", submit.p99_us);
    rep.set("runtime.queue_wait_ms_p50", wait.p50_us / 1e3);
    rep.set("runtime.queue_wait_ms_p99", wait.p99_us / 1e3);
    rep.set("runtime.effective_lp_mean", ref.effective_lp_mean);
    rep.set("autonomic.record_latency_us_p50", rl.p50_us);
    rep.set("autonomic.record_latency_us_p99", rl.p99_us);
    rep.set("autonomic.record_latency_calls", static_cast<double>(ref.record_latency_calls));
    rep.set("autonomic.grant_changes", static_cast<double>(ref.grant_changes));
    rep.set("autonomic.slo_grant_mean", ref.grant_mean);
    rep.set("autonomic.peak_total_granted", s->coord.peak_total_granted());
    rep.set("workload.gen_late_ms_p99", tr.stats(SpanKind::kGenLate).p99_us / 1e3);
    rep.set("workload.service_ms_p99", tr.stats(SpanKind::kRequest).p99_us / 1e3);
    rep.set("workload.slo_p99_ms_r1200", quantile(ref.slo_lat, 0.99) * 1e3);
    rep.set("workload.be_p99_ms_r600", quantile(rungs[0].be_lat, 0.99) * 1e3);
    long met = 0;
    for (const double l : ref.slo_lat) met += l <= kSloGoalS;
    rep.set("workload.slo_attainment_r1200",
            static_cast<double>(met) / static_cast<double>(ref.slo_lat.size()));
    double max_rate = 0.0;
    for (int r = 0; r < kRungs; ++r) {
      const RungResult& rr = rungs[static_cast<std::size_t>(r)];
      if (rr.unfinished == 0 && quantile(rr.slo_lat, 0.99) <= kMaxRateP99S) {
        max_rate = kLadderHz[r];
      }
    }
    rep.set("workload.max_rate_hz", max_rate);
    rep.set("trace_overhead_pct",
            overhead_pct(quantile(ref.slo_lat, 0.5), untraced_p50));
  }
  if (s->coord.peak_total_granted() > kBudget) {
    rep.violation("coordinator granted " + std::to_string(s->coord.peak_total_granted()) +
                  " threads over a budget of " + std::to_string(kBudget));
  }
  return rep;
}

}  // namespace e2e
