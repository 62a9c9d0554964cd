#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace e2e {

const std::vector<MetricDecl>& end_to_end_metrics() {
  static const std::vector<MetricDecl> decls = {
      {"setup_s", "s"},
      {"latency_ms_p50", "ms"},
      {"latency_ms_p99", "ms"},
      {"goodput_per_s", "1/s"},
      {"lp_s_per_op", "s"},
  };
  return decls;
}

const std::vector<MetricDecl>& per_layer_metrics() {
  static const std::vector<MetricDecl> decls = {
      {"skel.muscle_ms_per_job", "ms"},
      {"skel.residual_ms_per_job", "ms"},
      {"sm.on_event_calls_per_job", "count"},
      {"sm.on_event_us_p50", "us"},
      {"sm.on_event_us_p99", "us"},
      {"sm.on_event_ms_per_job", "ms"},
      {"autonomic.on_event_ms_per_job", "ms"},
      {"autonomic.on_event_us_p99", "us"},
      {"autonomic.evaluations_per_job", "count"},
      {"autonomic.actions_per_eval", "ratio"},
      {"autonomic.actions_per_job", "count"},
      {"autonomic.first_grow_ms", "ms"},
      {"adg.snapshot_us", "us"},
      {"adg.activities", "count"},
      {"adg.decide_us", "us"},
      {"est.snapshot_us", "us"},
      {"est.fe_err_pct", "%"},
      {"est.tail_err_pct", "%"},
      {"runtime.busy_thread_ms_per_job", "ms"},
      {"runtime.cpu_ms_per_op", "ms"},
      {"runtime.lp_mean", "threads"},
      {"runtime.steals_per_job", "count"},
      {"runtime.submit_us_p50", "us"},
      {"runtime.submit_us_p99", "us"},
      {"runtime.queue_wait_ms_p50", "ms"},
      {"runtime.queue_wait_ms_p99", "ms"},
      {"runtime.effective_lp_mean", "threads"},
      {"autonomic.record_latency_us_p50", "us"},
      {"autonomic.record_latency_us_p99", "us"},
      {"autonomic.record_latency_calls", "count"},
      {"autonomic.grant_changes", "count"},
      {"autonomic.slo_grant_mean", "threads"},
      {"autonomic.peak_total_granted", "threads"},
      {"runtime.call_named_us_p50", "us"},
      {"runtime.call_named_us_p99", "us"},
      {"runtime.host_exec_us_p50", "us"},
      {"runtime.wire_us_p50", "us"},
      {"runtime.codec_us", "us"},
      {"runtime.completes_per_lease", "ratio"},
      {"runtime.losses_recovered", "count"},
      {"runtime.ignored_completes", "count"},
      {"workload.gen_late_ms_p99", "ms"},
      {"workload.service_ms_p99", "ms"},
      {"workload.goal_met_frac", "fraction"},
      {"workload.slo_p99_ms_r1200", "ms"},
      {"workload.be_p99_ms_r600", "ms"},
      {"workload.slo_attainment_r1200", "fraction"},
      {"workload.max_rate_hz", "1/s"},
      {"trace_overhead_pct", "%"},
  };
  return decls;
}

namespace {

const MetricDecl* find_decl(const std::string& name) {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDecl& d : *list) {
      if (name == d.name) return &d;
    }
  }
  return nullptr;
}

}  // namespace

void Report::set(const std::string& name, double value) {
  if (find_decl(name) == nullptr) throw std::logic_error("undeclared metric " + name);
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

void Report::violation(const std::string& what) {
  if (correct) std::cerr << "askel_e2e: output violation: " << what << "\n";
  correct = false;
}

std::vector<std::pair<std::string, double>> Report::ordered(
    const std::vector<MetricDecl>& decls, bool require_all) const {
  std::vector<std::pair<std::string, double>> out;
  for (const MetricDecl& d : decls) {
    const auto it = std::find_if(values_.begin(), values_.end(),
                                 [&](const auto& nv) { return nv.first == d.name; });
    if (it == values_.end() && require_all) {
      throw std::logic_error(std::string("metric not measured: ") + d.name);
    }
    const double v = it == values_.end() ? 0.0 : it->second;
    out.emplace_back(d.name, std::isfinite(v) ? v : 0.0);
  }
  return out;
}

void Report::print(const std::vector<MetricDecl>& decls, bool require_all) const {
  const auto metrics = ordered(decls, require_all);
  std::ostringstream o;
  o << std::setprecision(std::numeric_limits<double>::max_digits10);
  o << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
    << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    o << (i == 0 ? "" : ", ") << "\"" << metrics[i].first << "\": {\"value\": "
      << metrics[i].second << ", \"unit\": \"" << decls[i].unit << "\"}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto idx = static_cast<std::size_t>(
      std::clamp(std::ceil(q * n) - 1.0, 0.0, n - 1.0));
  return v[idx];
}

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double cpu_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

}  // namespace

double process_cpu_s() { return cpu_s(RUSAGE_SELF); }

double thread_cpu_s() { return cpu_s(RUSAGE_THREAD); }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t h = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

}  // namespace e2e
