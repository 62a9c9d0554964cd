#pragma once
// Deterministic replay of the worked example of paper §4 (Figures 1 and 2):
// the skeleton map(fs, map(fs, seq(fe), fm), fm) executed with LP = 2 and
// muscle profile t(fs)=10, t(fe)=15, t(fm)=5, |fs|=3.
//
// The replay feeds the exact event stream the engine emits for that run —
// with virtual timestamps — into a TrackerSet, so the analytic layers can be
// validated against the paper's published numbers:
//   * ADG observed at WCT 70 (Figure 1),
//   * best-effort WCT 100, limited-LP(2) WCT 115,
//   * best-effort concurrency peaks at 3 in [75, 90) → optimal LP 3,
//   * raising LP to 3 meets a WCT goal of 100 (paper's closing remark).

#include <vector>

#include "est/registry.hpp"
#include "events/event.hpp"
#include "skel/typed.hpp"
#include "sm/tracker_set.hpp"

namespace askel {

/// Static pieces of the example skeleton (no-op muscles; only the event
/// stream matters for the analytic layers).
struct PaperExampleSkeleton {
  Skel<int, int> skeleton;  // map(fs, map(fs, seq(fe), fm), fm)
  const SkelNode* outer;
  const SkelNode* inner;
  const SkelNode* seq;
  int fs_id;
  int fe_id;
  int fm_id;
};

PaperExampleSkeleton make_paper_example_skeleton();

class PaperExampleReplay {
 public:
  /// `rho` is the estimator smoothing (all observations are identical in the
  /// example, so any rho yields the paper's values; 0.5 is the default).
  explicit PaperExampleReplay(double rho = 0.5);

  /// Feed every event with timestamp <= t (monotone; call with increasing t).
  void replay_until(TimePoint t);

  /// Events remaining to be replayed.
  std::size_t remaining() const { return events_.size() - cursor_; }

  /// ADG snapshot at observation time `now` (replay_until(now) first for the
  /// paper's semantics).
  AdgSnapshot snapshot(TimePoint now) const { return trackers_.snapshot(now); }

  const PaperExampleSkeleton& skel() const { return skel_; }
  EstimateRegistry& registry() { return reg_; }
  TrackerSet& trackers() { return trackers_; }

  /// Total WCT of the replayed LP=2 execution (the paper's 115).
  static constexpr TimePoint kTotalWct = 115.0;
  /// The paper's observation instant.
  static constexpr TimePoint kObservationTime = 70.0;

 private:
  struct TimedEvent {
    TimePoint t;
    Event ev;
  };
  void push(TimePoint t, const SkelNode* node, std::int64_t exec,
            std::int64_t parent, When when, Where where, int muscle_id,
            int card = -1, int child_index = -1);
  void build_schedule();

  PaperExampleSkeleton skel_;
  EstimateRegistry reg_;
  TrackerSet trackers_;
  std::vector<TimedEvent> events_;
  std::size_t cursor_ = 0;
};

}  // namespace askel
