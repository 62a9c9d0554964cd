// The paper's §6 future work: "analyses of different WCT estimation
// algorithms comparing its overhead costs". Three modes live here:
//
//  * default mode — the greedy list schedule the controller uses, on the §4
//    worked example (with the Graham bounds around it) and on random DAGs of
//    growing size: estimate values and per-call cost.
//
//  * --estimators mode — the PR 4 estimator family A/B: replays the
//    Figure 5/6/7 scenarios under each estimator (EWMA / window mean /
//    window median / P² quantile) and reports adaptation quality side by
//    side (goal-miss width, decision churn, per-muscle estimate error),
//    plus the deterministic bursty-stream one-step-ahead accuracy ranking
//    from est/quality.hpp. Emits one JSON object on stdout (consumed by
//    bench/run_bench.sh into BENCH_PR<N>.json).
//
//  * --overhead mode — what the MAPE loop costs on fine-grained work: the
//    e2e wordcount_cpu job shape (16 x 32 fan-out over 20K tweets, muscle
//    sleeps off) at a fixed LP 4, jobs alternating between trackers alone
//    and trackers plus an armed controller that cannot move LP (max LP 4, a
//    goal no schedule meets). Emits the median job time of each side and
//    their ratio, autonomic_overhead_ratio, as one JSON object.
//
// Usage: wct_algorithms [--estimators [--smoke] [--scale X] [--tweets N]]
//        wct_algorithms --overhead [--smoke]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <optional>
#include <random>
#include <string>

#include "adg/bounds.hpp"
#include "askel.hpp"
#include "est/quality.hpp"
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

// ------------------------------------------------------- estimator A/B --

/// Adaptation-quality digest of one scenario run.
struct ScenarioQuality {
  double wct = 0.0;
  double goal = 0.0;
  bool goal_met = false;
  double goal_miss_pct = 0.0;  // max(0, wct - goal) / goal * 100
  int decisions = 0;           // applied LP changes
  int lp_churn = 0;            // sum |ΔLP| over those changes
  long evaluations = 0;
  /// Final t(fe) vs the calibrated truth; empty when the run produced no fe
  /// duration estimate (reported as JSON null, not as a perfect 0).
  std::optional<double> fe_est_err_pct;
  bool correct = false;
};

ScenarioQuality digest(const ScenarioConfig& cfg, const ScenarioResult& res) {
  ScenarioQuality q;
  q.wct = res.wct;
  q.goal = res.goal;
  q.goal_met = res.goal_met;
  q.goal_miss_pct = 100.0 * std::max(0.0, res.wct - res.goal) / res.goal;
  q.decisions = static_cast<int>(res.actions.size());
  for (const auto& a : res.actions) q.lp_churn += std::abs(a.to_lp - a.from_lp);
  q.evaluations = res.controller_evaluations;
  const auto it = res.final_estimates.find("fe");
  const double truth = cfg.timings.scaled_execute();
  if (it != res.final_estimates.end() && it->second.t && truth > 0.0) {
    q.fe_est_err_pct = 100.0 * std::abs(*it->second.t - truth) / truth;
  }
  q.correct = res.counts == res.expected;
  return q;
}

void print_quality_json(const ScenarioQuality& q, const EstimatorConfig& cfg,
                        bool last) {
  std::cout << "      {\"estimator\": \"" << to_string(cfg.kind) << "\""
            << ", \"wct_s\": " << fmt(q.wct, 3) << ", \"goal_s\": "
            << fmt(q.goal, 3) << ", \"goal_met\": " << json_bool(q.goal_met)
            << ", \"goal_miss_pct\": " << fmt(q.goal_miss_pct, 2)
            << ", \"decisions\": " << q.decisions
            << ", \"lp_churn\": " << q.lp_churn
            << ", \"evaluations\": " << q.evaluations
            << ", \"fe_est_err_pct\": "
            << (q.fe_est_err_pct ? fmt(*q.fe_est_err_pct, 2)
                                 : std::string("null"))
            << ", \"results_correct\": " << json_bool(q.correct) << "}"
            << (last ? "" : ",") << "\n";
}

int run_estimator_ab(int argc, char** argv) {
  bool smoke = false;
  double scale = 0.15;
  std::size_t tweets = 5000;
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[k], "--scale") == 0 && k + 1 < argc) {
      const double v = std::atof(argv[++k]);
      if (v > 0.0) scale = v;  // atof's 0.0-on-garbage must not zero timings
    } else if (std::strcmp(argv[k], "--tweets") == 0 && k + 1 < argc) {
      const long v = std::atol(argv[++k]);
      if (v > 0) tweets = static_cast<std::size_t>(v);
    }
  }
  if (smoke) {
    scale = std::min(scale, 0.05);
    tweets = std::min<std::size_t>(tweets, 2000);
  }

  const std::vector<EstimatorConfig> family = default_estimator_family();

  // Deterministic part first: one-step-ahead accuracy on the seeded bursty
  // stream (the estimator-quality ranking the regression test also checks).
  constexpr std::uint64_t kStreamSeed = 42;
  constexpr int kStreamLen = 400;
  const std::vector<double> stream = bursty_stream(kStreamSeed, kStreamLen);
  const std::vector<StreamQuality> ranked = rank_estimators(family, stream);

  std::cout << "{\n";
  std::cout << "  \"mode\": \"estimator_ab\",\n";
  std::cout << "  \"smoke\": " << json_bool(smoke) << ",\n";
  std::cout << "  \"scale\": " << fmt(scale, 4) << ",\n";
  std::cout << "  \"tweets\": " << tweets << ",\n";
  std::cout << "  \"stream_quality\": {\n";
  std::cout << "    \"seed\": " << kStreamSeed << ", \"samples\": " << kStreamLen
            << ",\n";
  std::cout << "    \"ranking_by_rms\": [";
  for (std::size_t k = 0; k < ranked.size(); ++k) {
    std::cout << "\"" << to_string(ranked[k].config.kind) << "\""
              << (k + 1 < ranked.size() ? ", " : "");
  }
  std::cout << "],\n";
  std::cout << "    \"per_estimator\": [\n";
  for (std::size_t k = 0; k < ranked.size(); ++k) {
    const StreamQuality& s = ranked[k];
    std::cout << "      {\"estimator\": \"" << to_string(s.config.kind) << "\""
              << ", \"rms_error\": " << fmt(s.rms_error, 4)
              << ", \"mean_abs_error\": " << fmt(s.mean_abs_error, 4)
              << ", \"max_abs_error\": " << fmt(s.max_abs_error, 4)
              << ", \"bias\": " << fmt(s.bias, 4) << "}"
              << (k + 1 < ranked.size() ? "," : "") << "\n";
  }
  std::cout << "    ]\n  },\n";

  // End-to-end: the Figure 5/6/7 scenarios under each estimator. fig6 runs
  // its own warmup per estimator (the initialization values must come from
  // the estimator under test, as in the paper's scenario 2).
  std::cout << "  \"scenarios\": {\n";
  const struct {
    const char* name;
    double goal;
    bool with_init;
  } scenarios[] = {
      {"fig5_goal_no_init", 9.5, false},
      {"fig6_goal_with_init", 9.5, true},
      {"fig7_goal_105", 10.5, false},
  };
  for (std::size_t s = 0; s < std::size(scenarios); ++s) {
    std::cout << "    \"" << scenarios[s].name << "\": [\n";
    for (std::size_t k = 0; k < family.size(); ++k) {
      ScenarioConfig cfg;
      cfg.wct_goal = scenarios[s].goal;
      cfg.timings.scale = scale;
      cfg.corpus.num_tweets = tweets;
      cfg.max_lp = 24;
      cfg.estimator = family[k].kind;
      cfg.estimator_window = family[k].window;
      cfg.estimator_quantile = family[k].quantile;
      cfg.rho = family[k].rho;
      ScenarioResult res;
      if (scenarios[s].with_init) {
        const ScenarioResult warmup = run_wordcount_scenario(cfg);
        res = run_wordcount_scenario(cfg, &warmup.final_estimates);
      } else {
        res = run_wordcount_scenario(cfg);
      }
      print_quality_json(digest(cfg, res), family[k], k + 1 == family.size());
    }
    std::cout << "    ]" << (s + 1 < std::size(scenarios) ? "," : "") << "\n";
  }
  std::cout << "  }\n}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--estimators") == 0) {
      return run_estimator_ab(argc, argv);
    }
    if (std::strcmp(argv[k], "--overhead") == 0) return run_overhead(argc, argv);
  }
  return run_scheduling_comparison();
}
