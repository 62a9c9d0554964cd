// remote_named: Map(fs, Seq(fe), fm) with 256 fe per job on a 4-thread pool,
// where every fe is a named call (RemoteWorkerBackend::call_named) over a
// TcpBackend with 4 loopback sessions — one per pool thread — to an
// in-process TcpWorkerHost running a registered CPU muscle (a 2K-iteration
// integer mix). No listeners are registered, so the autonomic stack is
// bypassed and transport, codec and frame I/O carry the load.
//
// The TcpBackend is provisioned on its own, NOT attached to the skeleton's
// pool: a named call made from a task on a pool whose backend is that same
// TcpBackend consumes the task's own bracket-lease completion as "stale",
// and the bracket then waits out complete_timeout and books a loss (see
// README.md, "Known defects").
//
// A session idle for kIdleProbeS gets a heartbeat probe before its next named
// call. The host's serve loop reads each frame against a 0.1 s poll deadline
// armed when it starts waiting, and the call's header and payload are two
// writes: a call landing at the end of that window is torn as a mid-frame
// stall, killing the session (README.md, "Known defects"). The probe's
// one-write round trip re-arms the window just before the call.
//
// Session k's client (pool thread k) and server (the host thread serving
// connection k) are pinned to the same CPU, lane k. Left to the scheduler,
// each run settles into its own placement of the 8 threads: over ten 4 s
// runs the job p50 then spread 30% (1.8 vs 2.8 ms modes), against 6% pinned.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "askel.hpp"
#include "runtime/muscle_table.hpp"
#include "runtime/tcp_transport.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

constexpr int kSessions = 4;
constexpr int kCallsPerJob = 256;
constexpr int kMixIterations = 2000;
/// Distinct job inputs; job j runs input j % kInputs, whose merged result is
/// computed locally at set-up, so every job's output is checked.
constexpr int kInputs = 64;
/// Half the host's 0.1 s serve-loop poll.
constexpr double kIdleProbeS = 0.05;

std::uint64_t mix(std::uint64_t x) {
  for (int k = 0; k < kMixIterations; ++k) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    x ^= x >> 29;
  }
  return x;
}

/// A job's input -> its 256 call arguments (benchmark code, not remote).
std::vector<std::uint64_t> job_args(std::uint64_t input) {
  std::vector<std::uint64_t> args(kCallsPerJob);
  for (int k = 0; k < kCallsPerJob; ++k) args[static_cast<std::size_t>(k)] = mix_seed(input, k);
  return args;
}

/// The CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Pin the calling thread to lane `lane`'s CPU (lanes wrap around `cpus`).
void pin_to_lane(const std::vector<int>& cpus, int lane) {
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(lane) % cpus.size()], &one);
  if (pthread_setaffinity_np(pthread_self(), sizeof one, &one) != 0) {
    throw std::runtime_error("cannot pin a thread to its lane");
  }
}

struct Setup {
  std::vector<int> cpus = allowed_cpus();
  /// Lane a host thread pins itself to when it next runs the muscle; set
  /// while set-up calls each session alone, -1 otherwise.
  std::atomic<int> pinning_lane{-1};
  askel::MuscleTable table;
  askel::WireMuscleId mix_id = 0;
  std::unique_ptr<askel::TcpWorkerHost> host;
  std::unique_ptr<askel::TcpBackend> backend;
  askel::ResizableThreadPool pool{kSessions, kSessions};
  askel::EventBus bus;  // no listeners
  askel::Skel<std::uint64_t, std::uint64_t> skeleton{nullptr};
  std::vector<std::uint64_t> inputs;
  std::vector<std::uint64_t> expected;
  std::atomic<int> next_session{0};
  std::atomic<long> failed_calls{0};

  /// The session owned by the calling pool thread, which is pinned to that
  /// session's lane (both on first use; every set-up has its own pool, so
  /// its threads are fresh).
  int session() {
    thread_local int index = -1;
    if (index < 0) {
      index = next_session.fetch_add(1);
      if (index >= kSessions) throw std::logic_error("more pool threads than sessions");
      pin_to_lane(cpus, index);
    }
    return index;
  }
};

void build_skeleton(Setup& s) {
  auto fs = askel::split_muscle<std::uint64_t, std::uint64_t>("fs", [](std::uint64_t input) {
    Span sp(SpanKind::kSplit);
    return job_args(input);
  });
  auto fe = askel::execute_muscle<std::uint64_t, std::uint64_t>("fe", [&s](std::uint64_t arg) {
    Span sp(SpanKind::kExecute);
    const int session = s.session();
    thread_local double last_call_s = -1.0;  // pool threads are fresh per set-up
    if (now_s() - last_call_s > kIdleProbeS) s.backend->probe(session);
    askel::NamedCallResult r;
    {
      Span call(SpanKind::kCallNamed);
      r = s.backend->call_named(session, s.mix_id, askel::PodValue::of_u64(arg));
    }
    last_call_s = now_s();
    if (!r.transported || r.status != askel::NamedStatus::kOk ||
        r.value.tag() != askel::PodTag::kU64) {
      s.failed_calls.fetch_add(1, std::memory_order_relaxed);
      return std::uint64_t{0};
    }
    return r.value.as_u64();
  });
  auto fm = askel::merge_muscle<std::uint64_t, std::uint64_t>(
      "fm", [](std::vector<std::uint64_t> parts) {
        Span sp(SpanKind::kMerge);
        std::uint64_t acc = 0;
        for (const std::uint64_t p : parts) acc += p;
        return acc;
      });
  s.skeleton = askel::Map(fs, askel::Seq(fe), fm);
}

std::unique_ptr<Setup> set_up(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  Setup* raw = s.get();
  s->mix_id = s->table.register_muscle("e2e.mix", [raw](const askel::PodValue& v) {
    thread_local bool pinned = false;  // host threads are fresh per set-up too
    if (const int lane = raw->pinning_lane.load(); lane >= 0 && !pinned) {
      pin_to_lane(raw->cpus, lane);
      pinned = true;
    }
    Span sp(SpanKind::kHostExec);
    return askel::PodValue::of_u64(mix(v.as_u64()));
  });
  s->host = std::make_unique<askel::TcpWorkerHost>(s->table);
  if (!s->host->listening()) throw std::runtime_error("TcpWorkerHost could not listen");
  askel::TcpBackendConfig cfg;
  cfg.port = s->host->port();
  cfg.max_workers = kSessions;
  s->backend = std::make_unique<askel::TcpBackend>(cfg);
  if (s->backend->provision(0, kSessions) == askel::WorkerBackend::Provision::kFailed) {
    throw std::runtime_error("TcpBackend refused to provision");
  }
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (s->backend->live_sessions() < kSessions) {
    if (std::chrono::steady_clock::now() > give_up) {
      throw std::runtime_error("TcpBackend sessions did not join");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // One call per session, alone: the host thread serving it pins itself.
  for (int lane = 0; lane < kSessions; ++lane) {
    s->pinning_lane.store(lane);
    s->backend->probe(lane);  // the session has been idle since it joined
    const askel::NamedCallResult r =
        s->backend->call_named(lane, s->mix_id, askel::PodValue::of_u64(1));
    if (!r.transported || r.status != askel::NamedStatus::kOk) {
      throw std::runtime_error("pinning call failed");
    }
  }
  s->pinning_lane.store(-1);
  build_skeleton(*s);
  for (int j = 0; j < kInputs; ++j) {
    const std::uint64_t in = mix_seed(seed, 1000 + static_cast<std::uint64_t>(j));
    std::uint64_t acc = 0;
    for (const std::uint64_t a : job_args(in)) acc += mix(a);
    s->inputs.push_back(in);
    s->expected.push_back(acc);
  }
  // Warm-up job: pool threads spawn and claim their sessions.
  askel::Engine engine(s->pool, s->bus);
  if (s->skeleton.input(s->inputs[0], engine).get() != s->expected[0]) {
    throw std::runtime_error("warm-up job returned a wrong merge");
  }
  return s;
}

struct Phase {
  std::vector<double> job_s, cpu_s, lp_s, busy_s, steals;
  long jobs() const { return static_cast<long>(job_s.size()); }
};

/// Jobs back to back for kRunSeconds. With `traced` set, every other job runs
/// with the tracer on and lands there, so the traced and untraced halves see
/// the same host conditions.
Phase run_phase(Setup& s, Report& rep, Phase* traced = nullptr) {
  Phase untraced;
  askel::Engine engine(s.pool, s.bus);
  const double deadline = now_s() + kRunSeconds;
  long id = 0;
  do {
    const bool trace = traced != nullptr && id % 2 == 1;
    Phase& ph = trace ? *traced : untraced;
    const auto k = static_cast<std::size_t>(id % kInputs);
    Tracer::instance().enable(trace);
    Tracer::set_current_id(id);
    const std::uint64_t steals0 = s.pool.steals();
    const double cpu0 = process_cpu_s();
    const std::int64_t tn0 = Tracer::now_ns();
    const askel::TimePoint t0 = askel::default_clock().now();
    const std::uint64_t merged = s.skeleton.input(s.inputs[k], engine).get();
    const askel::TimePoint t1 = askel::default_clock().now();
    const std::int64_t tn1 = Tracer::now_ns();
    const double cpu1 = process_cpu_s();
    Tracer::instance().record(SpanKind::kJob, tn0, tn1, id);
    Tracer::instance().enable(false);

    s.pool.wait_idle();
    const double wct = t1 - t0;
    if (merged != s.expected[k]) rep.violation("remote merge differs from the local recomputation");
    ph.job_s.push_back(wct);
    ph.cpu_s.push_back(cpu1 - cpu0);
    ph.lp_s.push_back(s.pool.lp_history().time_weighted_mean(t0, t1) * wct);
    ph.busy_s.push_back(s.pool.gauge().series().time_weighted_mean(t0, t1) * wct);
    s.pool.gauge().reset();
    ph.steals.push_back(static_cast<double>(s.pool.steals() - steals0));
    ++id;
  } while (now_s() < deadline);
  rep.attempted += id * kCallsPerJob;
  return untraced;
}

}  // namespace

Report run_remote_named(const Options& opt) {
  Report rep;
  double setup_s = 0.0;
  const auto s = set_up_repeatedly([&] { return set_up(opt.seed); }, setup_s);

  Phase ph;  // the traced jobs
  const Phase base = run_phase(*s, rep, opt.trace ? &ph : nullptr);
  if (!opt.trace) {
    const double n = static_cast<double>(base.jobs());
    rep.set("setup_s", setup_s);
    rep.set("latency_ms_p50", quantile(base.job_s, 0.50) * 1e3);
    rep.set("latency_ms_p99", quantile(base.job_s, 0.99) * 1e3);
    rep.set("goodput_per_s", n * kCallsPerJob / sum(base.job_s));
    rep.set("lp_s_per_op", sum(base.lp_s) / n);
  }

  if (opt.trace) {
    Tracer& tr = Tracer::instance();
    tr.enable(true);
    for (int k = 0; k < 1000; ++k) {
      Span sp(SpanKind::kCodec);
      const std::vector<std::uint8_t> wire =
          askel::encode_pod(askel::PodValue::of_u64(s->expected[static_cast<std::size_t>(k) % kInputs]));
      askel::PodValue back;
      if (!askel::decode_pod(wire.data(), wire.size(), back)) rep.violation("decode_pod failed");
    }
    tr.enable(false);
  }

  const askel::RemoteBackendStats st = s->backend->stats();
  if (st.leases != st.completes + st.losses_recovered) {
    rep.violation("leases " + std::to_string(st.leases) + " != completes " +
                  std::to_string(st.completes) + " + losses " +
                  std::to_string(st.losses_recovered));
  }
  rep.failed = s->failed_calls.load();
  // Joins the host's serve threads: their spans are safe to merge after it.
  s->host->stop();
  if (!opt.trace) return rep;

  Tracer& tr = Tracer::instance();
  const double n = static_cast<double>(ph.jobs());
  const double muscle_ms = (tr.stats(SpanKind::kSplit).total_ms +
                            tr.stats(SpanKind::kExecute).total_ms +
                            tr.stats(SpanKind::kMerge).total_ms) / n;
  const double busy_ms = sum(ph.busy_s) / n * 1e3;
  const SpanStats call = tr.stats(SpanKind::kCallNamed);
  const SpanStats host = tr.stats(SpanKind::kHostExec);
  rep.set("skel.muscle_ms_per_job", muscle_ms);
  rep.set("skel.residual_ms_per_job", busy_ms - muscle_ms);
  rep.set("runtime.busy_thread_ms_per_job", busy_ms);
  rep.set("runtime.cpu_ms_per_op", sum(ph.cpu_s) / n * 1e3);
  rep.set("runtime.lp_mean", sum(ph.lp_s) / sum(ph.job_s));
  rep.set("runtime.steals_per_job", mean(ph.steals));
  rep.set("runtime.call_named_us_p50", call.p50_us);
  rep.set("runtime.call_named_us_p99", call.p99_us);
  rep.set("runtime.host_exec_us_p50", host.p50_us);
  rep.set("runtime.wire_us_p50", call.p50_us - host.p50_us);
  rep.set("runtime.codec_us", tr.stats(SpanKind::kCodec).p50_us);
  rep.set("runtime.completes_per_lease",
          static_cast<double>(st.completes) / static_cast<double>(std::max<std::uint64_t>(1, st.leases)));
  rep.set("runtime.losses_recovered", static_cast<double>(st.losses_recovered));
  rep.set("runtime.ignored_completes", static_cast<double>(st.ignored_completes));
  rep.set("trace_overhead_pct",
          overhead_pct(quantile(ph.job_s, 0.5), quantile(base.job_s, 0.5)));
  return rep;
}

}  // namespace e2e
