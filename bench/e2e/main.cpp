// askel_e2e: the end-to-end benchmark program (one workload per process).
//
//   askel_e2e --workload NAME [--seed N] [--trace 0|1] [--trace-file PATH]
//
// Every run measures for kRunSeconds (20 s). Prints one provenance line
// ("# {...}") and then, as the last line, the result JSON: {"correct",
// "attempted", "failed", "metrics"}. Untraced runs report the end-to-end
// metrics; --trace 1 reports the per-layer metrics and writes the Chrome
// trace to --trace-file. Exits 1 on an output violation, 2 on bad arguments
// or a failed run.

#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "askel_e2e: " << why
            << "\nusage: askel_e2e --workload {wordcount_cpu|paper_goal|service_slo|"
               "remote_named} [--seed N] [--trace 0|1] [--trace-file PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    if (k + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++k];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage("--seed takes a whole number");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      opt.trace = value[0] == '1';
    } else if (flag == "--trace-file") {
      opt.trace_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  e2e::Report (*run)(const e2e::Options&) = nullptr;
  if (opt.workload == "wordcount_cpu") run = e2e::run_wordcount_cpu;
  if (opt.workload == "paper_goal") run = e2e::run_paper_goal;
  if (opt.workload == "service_slo") run = e2e::run_service_slo;
  if (opt.workload == "remote_named") run = e2e::run_remote_named;
  if (run == nullptr) return usage("unknown or missing --workload");

  const char* commit = std::getenv("ASKEL_E2E_COMMIT");
  std::cout << "# {\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
            << ", \"seconds\": " << e2e::kRunSeconds << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": \"" << ASKEL_E2E_COMPILER << "\", \"build_type\": \""
            << ASKEL_E2E_BUILD_TYPE << "\", \"commit\": \""
            << (commit != nullptr && *commit != '\0' ? commit : "unknown") << "\"}"
            << std::endl;

  try {
    const e2e::Report rep = run(opt);
    const auto& decls = opt.trace ? e2e::per_layer_metrics() : e2e::end_to_end_metrics();
    if (opt.trace && !opt.trace_path.empty()) {
      if (!e2e::Tracer::instance().write_chrome(opt.trace_path, rep.ordered(decls, false))) {
        std::cerr << "askel_e2e: cannot write " << opt.trace_path << "\n";
        return 2;
      }
      std::cerr << "askel_e2e: trace written to " << opt.trace_path << "\n";
    }
    rep.print(decls, !opt.trace);
    return rep.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "askel_e2e: " << opt.workload << " failed: " << e.what() << "\n";
    return 2;
  }
}
