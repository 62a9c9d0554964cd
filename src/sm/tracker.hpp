#pragma once
// Per-instance state machines ("trackers") driven by skeleton events.
//
// The paper (§4, Figures 3 and 4) attaches a state machine to every dynamic
// skeleton instance; the machine (i) updates the t(m) / |m| estimates on
// After events and (ii) knows enough about the instance's progress to emit
// its slice of the Activity Dependency Graph: done muscle executions with
// actual times, the currently running muscle, and the expected remainder.
//
// One tracker exists per dynamic instance (per exec_id); TrackerSet routes
// events, maintains the parent/child tree, and assembles whole-run snapshots.
// docs/architecture.md, "Trackers and the expected ADG", describes the
// machines and what each expects of the part of its instance not yet seen.

#include <memory>
#include <optional>
#include <vector>

#include "adg/expand.hpp"
#include "adg/snapshot.hpp"
#include "est/registry.hpp"
#include "events/event.hpp"
#include "skel/nodes.hpp"

namespace askel {

/// Record of one muscle execution observed via its Before/After events.
struct MuscleRec {
  int muscle_id = -1;
  std::string label;
  TimePoint start = 0.0;
  std::optional<TimePoint> end;
  bool cond_result = false;
  int cardinality = -1;

  bool done() const { return end.has_value(); }
};

class Tracker;
using TrackerPtr = std::shared_ptr<Tracker>;

/// Context handed to Tracker::contribute when building a snapshot.
struct SnapshotCtx {
  AdgSnapshot& g;
  const Estimates& est;
  ExpandLimits limits;
};

class Tracker {
 public:
  Tracker(const SkelNode* node, std::int64_t exec_id, std::int64_t parent_exec_id);
  virtual ~Tracker() = default;

  const SkelNode* node() const { return node_; }
  std::int64_t exec_id() const { return exec_id_; }
  std::int64_t parent_exec_id() const { return parent_exec_id_; }
  bool finished() const { return finished_; }
  const std::vector<TrackerPtr>& children() const { return children_; }

  /// Dynamic nesting depth (0 = root instance); set when attached to its
  /// parent. Feeds per-depth estimation (EstimationScope::kPerDepth).
  int depth() const { return depth_; }

  /// Handle an event with ev.exec_id == exec_id(). Updates internal state
  /// and folds actuals into `reg`.
  virtual void on_event(const Event& ev, EstimateRegistry& reg) = 0;

  /// A nested instance sent its first event; attach it in arrival order,
  /// one nesting level deeper.
  virtual void attach_child(TrackerPtr child) {
    child->depth_ = depth_ + 1;
    children_.push_back(std::move(child));
  }

  /// Emit this instance's activities. `preds` are the snapshot ids the
  /// instance waits on; returns the terminal activity ids its result
  /// depends on.
  virtual std::vector<int> contribute(SnapshotCtx& c, std::vector<int> preds) const = 0;

 protected:
  void mark_finished() { finished_ = true; }

  /// Emit one activity for a muscle record (done or running); running
  /// durations use the per-depth estimate of this instance's depth.
  int add_record(SnapshotCtx& c, const MuscleRec& rec, std::vector<int> preds) const;

  /// Fold a closed record's duration into the registry at this depth.
  void observe_duration_of(EstimateRegistry& reg, const MuscleRec& rec) const;

  /// Record helpers shared by concrete trackers.
  static MuscleRec open_rec(const Event& ev, const Muscle& m);
  static void close_rec(MuscleRec& rec, const Event& ev);
  /// A Before event of muscle `m` opens `rec`; the matching After closes it
  /// and folds its duration into `reg`. True when this event closed `rec`.
  bool track(std::optional<MuscleRec>& rec, const Event& ev, const Muscle& m,
             EstimateRegistry& reg);

  const SkelNode* node_;
  std::int64_t exec_id_;
  std::int64_t parent_exec_id_;
  int depth_ = 0;
  bool finished_ = false;
  std::vector<TrackerPtr> children_;
};

/// Create the tracker matching `node->kind()`.
TrackerPtr make_tracker(const SkelNode* node, const Event& first_event);

}  // namespace askel
