// The paper's §6 future work: "analyses of different WCT estimation
// algorithms comparing its overhead costs". Two modes live here:
//
//  * default mode — the greedy list schedule the controller uses, on the §4
//    worked example (with the Graham bounds around it) and on random DAGs of
//    growing size: estimate values and per-call cost.
//
//  * --overhead mode — what the MAPE loop costs on fine-grained work: the
//    e2e wordcount_cpu job shape (16 x 32 fan-out over 20K tweets, muscle
//    sleeps off) at a fixed LP 4, jobs alternating between trackers alone
//    and trackers plus an armed controller that cannot move LP (max LP 4, a
//    goal no schedule meets). Emits the median job time of each side and
//    their ratio, autonomic_overhead_ratio, as one JSON object.
//
// Usage: wct_algorithms
//        wct_algorithms --overhead [--smoke]

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <random>
#include <string>

#include "adg/bounds.hpp"
#include "askel.hpp"
#include "util/csv.hpp"
#include "workload/paper_example.hpp"
#include "workload/wordcount.hpp"

using namespace askel;

namespace {

AdgSnapshot random_dag(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dur(0.1, 5.0);
  std::uniform_int_distribution<int> npreds(0, 3);
  AdgSnapshot g;
  g.now = 0.0;
  for (int k = 0; k < n; ++k) {
    std::vector<int> preds;
    if (k > 0) {
      std::uniform_int_distribution<int> pick(0, k - 1);
      for (int j = npreds(rng); j > 0; --j) preds.push_back(pick(rng));
      std::sort(preds.begin(), preds.end());
      preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
    }
    g.add(make_pending(0, "x", dur(rng), std::move(preds)));
  }
  return g;
}

template <class F>
double time_ns(F&& fn, int iters) {
  const auto t0 = std::chrono::steady_clock::now();
  double sink = 0.0;
  for (int k = 0; k < iters; ++k) sink += fn();
  const auto t1 = std::chrono::steady_clock::now();
  (void)sink;
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
}

int run_scheduling_comparison() {
  std::cout << "=== WCT estimation: list-schedule accuracy and overhead ===\n\n";

  // Accuracy on the paper's worked example at LP 2 (list schedule = 115).
  PaperExampleReplay replay;
  replay.replay_until(70.0);
  const AdgSnapshot paper = replay.snapshot(70.0);
  std::cout << "paper example @70, LP=2: list=" << limited_lp(paper, 2).wct
            << "  graham_bound=" << graham_bound(paper, 2)
            << "  graham_upper=" << graham_upper(paper, 2) << "\n\n";

  Table table({"n", "lp", "list_wct", "list_ns"});
  for (const int n : {16, 64, 256, 1024}) {
    const AdgSnapshot g = random_dag(17, n);
    for (const int lp : {2, 8}) {
      const int iters = n <= 256 ? 200 : 20;
      const double tl = time_ns([&] { return limited_lp(g, lp).wct; }, iters);
      table.add_row({std::to_string(n), std::to_string(lp),
                     fmt(limited_lp(g, lp).wct, 2), fmt(tl, 0)});
    }
  }
  std::cout << table.to_text();
  return 0;
}

// ------------------------------------------------ autonomic overhead --

/// One wordcount_cpu-shaped job on `pool` (fixed at LP 4); returns its wall
/// time in seconds, or a negative value when the counts are wrong.
double overhead_job(const WordcountSkeleton& ws, const TweetDoc& doc,
                    const Counts& expected, ResizableThreadPool& pool,
                    bool armed) {
  // A goal no schedule meets: the controller plans every event it is
  // allowed to, but with LP already at its max it never moves it.
  constexpr Duration kUnreachableGoal = 1e-9;
  EventBus bus;
  EstimateRegistry reg;
  TrackerSet trackers(reg);
  bus.add_listener(trackers.as_listener());
  AutonomicController controller(pool, trackers);
  if (armed) bus.add_listener(controller.as_listener());
  Engine engine(pool, bus);
  const auto t0 = std::chrono::steady_clock::now();
  if (armed) controller.arm(kUnreachableGoal, pool.max_lp());
  const CountsPart out = ws.skeleton.input(doc, engine).get();
  const auto t1 = std::chrono::steady_clock::now();
  controller.disarm();
  pool.wait_idle();
  if (out.counts != expected) return -1.0;
  return std::chrono::duration<double>(t1 - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

int run_overhead(int argc, char** argv) {
  bool smoke = false;
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--smoke") == 0) smoke = true;
  }
  const long jobs = smoke ? 10 : 150;

  PaperTimings timings;
  timings.scale = 0.0;
  timings.outer_chunks = 16;
  timings.inner_chunks = 32;
  const WordcountSkeleton ws = make_wordcount_skeleton(timings, 85);
  TweetCorpusConfig corpus;
  corpus.num_tweets = 20000;
  TweetDoc doc;
  doc.tweets =
      std::make_shared<const std::vector<std::string>>(generate_tweets(corpus));
  doc.end = doc.tweets->size();
  const Counts expected = count_tokens(doc);
  ResizableThreadPool pool(4, 4);

  // One untimed job per side, then alternate so both sides see the same
  // host conditions.
  std::vector<double> bare, armed;
  bool correct = overhead_job(ws, doc, expected, pool, false) >= 0.0 &&
                 overhead_job(ws, doc, expected, pool, true) >= 0.0;
  for (long k = 0; k < 2 * jobs; ++k) {
    const bool arm = k % 2 == 1;
    const double s = overhead_job(ws, doc, expected, pool, arm);
    correct = correct && s >= 0.0;
    (arm ? armed : bare).push_back(s);
  }
  const double bare_ms = median(bare) * 1e3;
  const double armed_ms = median(armed) * 1e3;
  std::cout << "{\"mode\": \"overhead\", \"smoke\": " << json_bool(smoke)
            << ", \"lp\": 4, \"jobs_per_side\": " << jobs
            << ", \"trackers_only_ms_p50\": " << fmt(bare_ms, 3)
            << ", \"armed_ms_p50\": " << fmt(armed_ms, 3)
            << ", \"autonomic_overhead_ratio\": "
            << fmt(bare_ms > 0.0 ? armed_ms / bare_ms : 0.0, 3)
            << ", \"results_correct\": " << json_bool(correct) << "}\n";
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--overhead") == 0) return run_overhead(argc, argv);
  }
  return run_scheduling_comparison();
}
