#pragma once
// Declared metrics, result assembly and the small statistics the workloads
// share.
//
// The metric lists here are askel_e2e's copy of BENCHMARK.json's
// `end_to_end` and `per_layer` arrays (compare.py --validate checks that the
// two agree). An untraced run prints every end-to-end metric; a traced run
// prints every per-layer metric, with 0 for a layer the workload does not
// exercise.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

struct MetricDecl {
  const char* name;
  const char* unit;
};

const std::vector<MetricDecl>& end_to_end_metrics();
const std::vector<MetricDecl>& per_layer_metrics();

/// What one run of one workload prints as its last line.
class Report {
 public:
  bool correct = true;
  long attempted = 0;
  long failed = 0;

  /// Set a declared metric (throws std::logic_error on an undeclared name).
  void set(const std::string& name, double value);
  /// Record an output violation; the run then reports correct=false.
  void violation(const std::string& what);

  /// The metrics of the declared list `decls`, in declaration order.
  /// End-to-end metrics must all be set; unset per-layer metrics read 0.
  std::vector<std::pair<std::string, double>> ordered(
      const std::vector<MetricDecl>& decls, bool require_all) const;
  /// Print the result JSON line for `decls` on stdout.
  void print(const std::vector<MetricDecl>& decls, bool require_all) const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// Run options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  bool trace = false;
  /// Where a traced run writes its Chrome trace.
  std::string trace_path;
};

/// Nearest-rank quantile of `v` (copied and sorted); 0 when empty.
double quantile(std::vector<double> v, double q);
double sum(const std::vector<double>& v);
double mean(const std::vector<double>& v);
/// Seconds on the steady clock.
double now_s();
/// User + system CPU seconds of the whole process so far.
double process_cpu_s();
/// User + system CPU seconds of the calling thread so far.
double thread_cpu_s();

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace e2e
