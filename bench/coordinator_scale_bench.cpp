// Coordinator scale benchmark: arbitration latency must be flat in
// REGISTRATIONS and scale only with the ARMED set (the PR 7 active-set
// index). Two configurations run back to back with an identical armed
// population:
//
//  * small: registered == armed (the PR 6 world, nothing cold);
//  * large: registered >> armed (default 1M registered, 10K armed — the
//    million-tenant shape from ROADMAP.md).
//
// The per-arbitration latency ratio large/small is the headline metric
// ("arbitration_flatness_ratio"); a coordinator that scans the registry on
// the hot path fails the <= 2x bound immediately (100x registrations would
// show up as ~100x latency). Registration throughput is also reported — it
// exercises the sharded registry, not the arbitration lock.
//
// Emits one JSON object on stdout (consumed by bench/run_bench.sh into
// BENCH_PR<N>.json).
//
// Usage: coordinator_scale_bench [--smoke] [--registered N] [--armed K]
//                                [--samples M]

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "autonomic/coordinator.hpp"
#include "runtime/thread_pool.hpp"
#include "util/csv.hpp"

using namespace askel;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ScaleResult {
  int registered = 0;
  int armed = 0;
  double register_us_per_tenant = 0.0;
  double arbitration_us = 0.0;  // mean request() latency over the samples
};

/// Register `registered` tenants, arm every (registered/armed)-th one, then
/// time `samples` request() calls round-robin over the armed set with
/// deterministic varying desired/pressure (so arbitration actually moves
/// grants instead of degenerating to a no-op table).
ScaleResult run_config(int registered, int armed, int samples) {
  ScaleResult out;
  out.registered = registered;
  out.armed = armed;

  ResizableThreadPool pool(1, 16);
  LpBudgetCoordinator coord(pool, 16);

  std::vector<int> ids;
  ids.reserve(static_cast<std::size_t>(registered));
  const double reg_t0 = now_s();
  for (int k = 0; k < registered; ++k) ids.push_back(coord.register_tenant());
  const double reg_t1 = now_s();
  out.register_us_per_tenant = (reg_t1 - reg_t0) * 1e6 / registered;

  const int stride = registered / armed;
  std::vector<int> armed_ids;
  armed_ids.reserve(static_cast<std::size_t>(armed));
  for (int k = 0; k < armed; ++k) {
    const int id = ids[static_cast<std::size_t>(k) * stride];
    coord.arm_tenant(id);
    armed_ids.push_back(id);
  }

  // Warm one pass so every armed tenant has a desired/pressure on record.
  for (std::size_t k = 0; k < armed_ids.size(); ++k) {
    coord.request(armed_ids[k], 1 + static_cast<int>(k % 4),
                  0.1 * static_cast<double>(k % 7));
  }

  const double t0 = now_s();
  for (int s = 0; s < samples; ++s) {
    const int id = armed_ids[static_cast<std::size_t>(s) % armed_ids.size()];
    coord.request(id, 1 + (s % 4), 0.1 * static_cast<double>((s * 3) % 7));
  }
  const double t1 = now_s();
  out.arbitration_us = (t1 - t0) * 1e6 / samples;

  for (int id : armed_ids) coord.release(id);
  return out;
}

void print_scale(const char* key, const ScaleResult& r, bool last) {
  std::cout << "  \"" << key << "\": {\"registered\": " << r.registered
            << ", \"armed\": " << r.armed << ", \"register_us_per_tenant\": "
            << fmt(r.register_us_per_tenant, 3)
            << ", \"arbitration_us\": " << fmt(r.arbitration_us, 2) << "}"
            << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int registered = 1'000'000;
  int armed = 10'000;
  int samples = 200;
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[k], "--registered") == 0 && k + 1 < argc) {
      registered = std::atoi(argv[++k]);
    } else if (std::strcmp(argv[k], "--armed") == 0 && k + 1 < argc) {
      armed = std::atoi(argv[++k]);
    } else if (std::strcmp(argv[k], "--samples") == 0 && k + 1 < argc) {
      samples = std::atoi(argv[++k]);
    }
  }
  if (smoke) {
    registered = std::min(registered, 50'000);
    armed = std::min(armed, 1'000);
    samples = std::min(samples, 50);
  }
  if (armed < 1) armed = 1;
  if (registered < armed) registered = armed;
  if (samples < 1) samples = 1;

  const ScaleResult small = run_config(armed, armed, samples);
  const ScaleResult large = run_config(registered, armed, samples);
  const double flatness =
      large.arbitration_us / std::max(1e-9, small.arbitration_us);
  const bool flat = flatness <= 2.0;

  std::cout << "{\n";
  std::cout << "  \"bench\": \"coordinator_scale\",\n";
  std::cout << "  \"smoke\": " << json_bool(smoke) << ",\n";
  std::cout << "  \"samples\": " << samples << ",\n";
  print_scale("small", small, false);
  print_scale("large", large, false);
  std::cout << "  \"arbitration_flatness_ratio\": " << fmt(flatness, 3)
            << ",\n";
  std::cout << "  \"flat_in_registrations\": " << json_bool(flat) << "\n";
  std::cout << "}\n";

  // The flatness bound is wall-clock, so like the other benches it only
  // gates the full (non-smoke) run.
  if (!smoke && !flat) return 1;
  return 0;
}
