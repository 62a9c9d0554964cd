#pragma once
// The four benchmark workloads. Each builds its inputs from Options::seed,
// sets itself up several times (setup_s is the median), measures for
// kRunSeconds, checks its outputs, and returns the metrics to print.
//
// Untraced runs return every end-to-end metric. A traced run alternates
// traced and untraced jobs (service_slo: one untraced 1200 Hz step, then the
// traced ladder) and returns the per-layer metrics of the traced part plus
// trace_overhead_pct, the traced vs untraced latency_ms_p50.

#include <vector>

#include "report.hpp"

namespace e2e {

/// Measured seconds per run, BENCHMARK.json's run_seconds. Fixed, because
/// it shapes the workloads (service_slo's ladder steps are a third of it):
/// runs of different lengths would not be comparable.
inline constexpr double kRunSeconds = 20.0;

/// Set-ups per run: at least kSetupRepeats, and more while less than
/// kSetupSeconds have passed, up to kMaxSetupRepeats. Set-up times drift
/// with the host over windows of about a second, so a set-up of a few
/// milliseconds needs the longer window: sampled for 0.5 s, the median
/// set-up of service_slo spread 33-38% over ten seeds; sampled for 2 s,
/// 2-27%, depending on how busy the host was.
inline constexpr std::size_t kSetupRepeats = 7;
inline constexpr double kSetupSeconds = 2.0;
inline constexpr std::size_t kMaxSetupRepeats = 500;

/// Run `make` (returning std::unique_ptr<T>) repeatedly as above, each time
/// after tearing the previous state down outside the timing. Keeps the last
/// state; `median_s` receives the median set-up time.
template <class Make>
auto set_up_repeatedly(Make make, double& median_s) {
  std::vector<double> times;
  decltype(make()) state;
  const double until = now_s() + kSetupSeconds;
  while (times.size() < kSetupRepeats ||
         (now_s() < until && times.size() < kMaxSetupRepeats)) {
    state.reset();
    const double t0 = now_s();
    state = make();
    times.push_back(now_s() - t0);
  }
  median_s = quantile(times, 0.5);
  return state;
}

Report run_wordcount_cpu(const Options& opt);
Report run_paper_goal(const Options& opt);
Report run_service_slo(const Options& opt);
Report run_remote_named(const Options& opt);

/// Percent change of `traced` over `untraced` (the tracing overhead).
inline double overhead_pct(double traced, double untraced) {
  return untraced > 0.0 ? (traced / untraced - 1.0) * 100.0 : 0.0;
}

}  // namespace e2e
