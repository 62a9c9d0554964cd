#pragma once
// The paper's §5 evaluation workload: hashtag / commented-user count modelled
// as two nested Map skeletons, map(fs, map(fs, seq(fe), fm), fm), where fs
// splits the input into smaller chunks, fe produces a hash map of tokens with
// partial counts, and fm merges partial counts — with fs and fm SHARED
// between the two nesting levels exactly as in the paper's Listing 1.
//
// `run_wordcount_scenario` is the harness behind Figures 5, 6 and 7: it runs
// one autonomic execution and returns the active-thread series, the LP
// decisions, and the final estimates (usable to initialize the next run).

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "autonomic/controller.hpp"
#include "skel/typed.hpp"
#include "util/time_series.hpp"
#include "workload/calibrated.hpp"
#include "workload/tweets.hpp"

namespace askel {

/// Token → count. Ordered map so results compare deterministically.
using Counts = std::map<std::string, long>;

/// A slice of the corpus at some nesting level. One type flows through both
/// map levels so the level-0 and level-1 splits can share one muscle.
struct TweetDoc {
  std::shared_ptr<const std::vector<std::string>> tweets;
  std::size_t begin = 0;
  std::size_t end = 0;
  /// 0 = whole input ("the file"), 1 = chunk, 2 = sub-chunk.
  int level = 0;
  /// Relative execute-cost multiplier of this slice (Zipf jitter).
  double weight = 1.0;

  std::size_t size() const { return end - begin; }
};

/// Reference (sequential) count over a document — used to validate results.
Counts count_tokens(const TweetDoc& doc);

/// Partial-count message flowing up the merge tree. It remembers the nesting
/// level it was produced at so the SHARED merge muscle can apply the paper's
/// distinct inner-merge (0.04 s) and outer-merge (0.10 s) costs.
struct CountsPart {
  Counts counts;
  /// Level of the slice these counts summarize (2 = sub-chunk, 1 = chunk,
  /// 0 = whole input).
  int level = 2;
};

/// The skeleton plus the shared muscles (exposed so tests/benches can seed or
/// inspect per-muscle estimates).
struct WordcountSkeleton {
  Skel<TweetDoc, CountsPart> skeleton;
  SplitPtr fs;
  ExecPtr fe;
  MergePtr fm;
};

/// Build map(fs, map(fs, seq(fe), fm), fm) with sleep-calibrated muscles.
/// `jitter_seed` drives the per-sub-chunk weight jitter (0 = no jitter).
WordcountSkeleton make_wordcount_skeleton(const PaperTimings& t,
                                          std::uint64_t jitter_seed = 0);

/// Estimates keyed by muscle NAME rather than id — transferable across runs
/// that rebuild the skeleton (fresh muscle objects get fresh ids). This is
/// the paper's scenario-2 mechanism: "t(m) and |m| are initialized with
/// their corresponding final value of a previous execution".
using NamedEstimates = std::map<std::string, Estimates::Entry>;

/// Export every estimate of the muscles reachable from `root`, by name.
NamedEstimates export_named_estimates(const EstimateRegistry& reg,
                                      const SkelNode& root);

/// Seed `reg` for the muscles reachable from `root` using name-matched
/// entries of `named` (unknown names are ignored).
void init_named_estimates(EstimateRegistry& reg, const SkelNode& root,
                          const NamedEstimates& named);

/// Where the pool's worker capacity lives (paper §6): in-process threads
/// (the default, the paper's multicore testbed) or fork()ed worker processes
/// behind the subprocess transport — real join latency, real crash
/// detection, same LP decisions.
enum class ScenarioBackend : int { kThread = 0, kSubprocess = 1 };

struct ScenarioConfig {
  PaperTimings timings;            // includes the time scale
  TweetCorpusConfig corpus;        // synthetic-corpus shape
  double wct_goal = 9.5;           // paper-scale seconds; scaled internally
  int max_lp = 24;                 // paper testbed: 24 hardware threads
  int initial_lp = 1;
  /// Worker backend of the run's own pool. Ignored when shared_pool or
  /// coordinator is set — a shared pool's backend belongs to its owner.
  ScenarioBackend backend = ScenarioBackend::kThread;
  double rho = 0.5;                // estimator smoothing (EWMA)
  /// kAggregate = the paper's per-muscle estimates (shared fs conflates the
  /// 6.4 s outer and 0.91 s inner splits); kPerDepth = this repo's
  /// context-sensitive extension (see ablation_context bench).
  EstimationScope scope = EstimationScope::kAggregate;
  /// Minimum spacing between controller evaluations, in PAPER seconds
  /// (scaled by timings.scale like everything else). The paper's controller
  /// visibly re-plans at a sub-second cadence (the Figure 5 ramp takes ≈1 s);
  /// evaluating on literally every event would let the unachievable-path
  /// ramp max out before estimates refine. Set <0 to evaluate on every event
  /// the controller's cost bound allows.
  Duration controller_min_interval = 0.1;
  std::uint64_t jitter_seed = 7;
  /// Multi-tenant mode: run on this shared pool instead of a private one
  /// (initial_lp/max_lp are then the shared pool's business) and, when
  /// `coordinator` is also set, register one tenant there and route the
  /// controller's LP through it. A coordinator alone implies its pool (the
  /// run executes where the grants actuate). Both null = the
  /// single-controller original.
  ResizableThreadPool* shared_pool = nullptr;
  LpBudgetCoordinator* coordinator = nullptr;
  /// SLA class weight of this run's tenant (>= 1; only meaningful with a
  /// coordinator running a WeightedSharePolicy).
  int sla_weight = 1;
};

struct ScenarioResult {
  double wct = 0.0;        // measured wall-clock of the run (seconds)
  double goal = 0.0;       // scaled goal actually applied (seconds)
  bool goal_met = false;
  int peak_busy = 0;       // max simultaneously busy workers
  int final_lp = 0;
  /// (t, busy-workers) with t relative to run start — Figures 5-7 series.
  std::vector<Sample> busy_series;
  /// (t, target LP) controller/pool history, t relative to run start.
  std::vector<Sample> lp_series;
  std::vector<AutonomicController::Action> actions;
  Counts counts;           // computed result
  Counts expected;         // sequential reference
  NamedEstimates final_estimates;
  long controller_evaluations = 0;
};

/// Run one autonomic execution. `init` seeds the estimate registry (paper
/// scenario 2, "Goal with initialization"); pass nullptr for scenario 1/3.
ScenarioResult run_wordcount_scenario(const ScenarioConfig& cfg,
                                      const NamedEstimates* init = nullptr);

}  // namespace askel
