#pragma once
// Concrete per-skeleton state machines, one per shape: seq, fan-out (map and
// fork), d&C, pipe/farm/for, if and while.
//
// SeqTracker implements Figure 3 and FanOutTracker Figure 4; the others
// follow the same pattern. Fork and If are tracked too, although the paper's
// v1.1b1 leaves them unsupported ("under construction"): see
// docs/architecture.md, "Trackers and the expected ADG".

#include "sm/tracker.hpp"

namespace askel {

/// seq(fe): I --@b--> running --@a--> F  (Figure 3).
class SeqTracker final : public Tracker {
 public:
  using Tracker::Tracker;
  void on_event(const Event& ev, EstimateRegistry& reg) override;
  std::vector<int> contribute(SnapshotCtx& c, std::vector<int> preds) const override;

 private:
  std::optional<MuscleRec> fe_;
};

/// map and fork (Figure 4): I --@bs--> splitting --@as--> S (children)
/// --@bm--> M --@am--> F. Element i runs FanOutNode::element(i), as in the
/// engine, so fork's elements cycle over its branches.
class FanOutTracker : public Tracker {
 public:
  using Tracker::Tracker;
  void on_event(const Event& ev, EstimateRegistry& reg) override;
  std::vector<int> contribute(SnapshotCtx& c, std::vector<int> preds) const override;

 protected:
  const FanOutNode& fan() const { return static_cast<const FanOutNode&>(*node_); }
  /// The split record after `preds`, then the started elements and the
  /// expected rest, then the merge. Requires split_.
  std::vector<int> contribute_split(SnapshotCtx& c, std::vector<int> preds) const;
  /// Expected expansion of element `i`, not started yet, after the split.
  virtual std::vector<int> expect_element(SnapshotCtx& c, std::size_t i,
                                          int split_id) const;

  std::optional<MuscleRec> split_;
  std::optional<MuscleRec> merge_;
};

/// d&C(fc,fs,∆,fm): a fan-out behind its condition, one tracker per
/// recursion level; every element recurses on the same node one level
/// deeper. The root (level 0) observes |fc| = its divide depth, in the
/// aggregate layer, when it finishes.
class DacTracker final : public FanOutTracker {
 public:
  using FanOutTracker::FanOutTracker;
  void on_event(const Event& ev, EstimateRegistry& reg) override;
  void attach_child(TrackerPtr child) override;
  std::vector<int> contribute(SnapshotCtx& c, std::vector<int> preds) const override;

 private:
  std::vector<int> expect_element(SnapshotCtx& c, std::size_t i,
                                  int split_id) const override;
  const DacNode& dac() const { return static_cast<const DacNode&>(*node_); }
  bool divided() const { return cond_ && cond_->done() && cond_->cond_result; }
  /// 0 when this instance did not divide; else 1 + max over its elements.
  long divide_depth() const;

  std::optional<MuscleRec> cond_;
  long level_ = 0;
};

/// pipe(∆1,∆2), farm(∆) and for(n,∆): nested instances that run strictly one
/// after another (two stages, one child, n bodies).
class ChainTracker final : public Tracker {
 public:
  using Tracker::Tracker;
  void on_event(const Event& ev, EstimateRegistry& reg) override;
  std::vector<int> contribute(SnapshotCtx& c, std::vector<int> preds) const override;
};

/// if(fc,∆t,∆f): condition then the chosen branch; the true branch is
/// expected until the condition returns.
class IfTracker final : public Tracker {
 public:
  using Tracker::Tracker;
  void on_event(const Event& ev, EstimateRegistry& reg) override;
  std::vector<int> contribute(SnapshotCtx& c, std::vector<int> preds) const override;

 private:
  std::optional<MuscleRec> cond_;
};

/// while(fc,∆): alternating condition/body chain; |fc| = #true observed.
class WhileTracker final : public Tracker {
 public:
  using Tracker::Tracker;
  void on_event(const Event& ev, EstimateRegistry& reg) override;
  std::vector<int> contribute(SnapshotCtx& c, std::vector<int> preds) const override;

 private:
  std::vector<MuscleRec> conds_;
  long true_count_ = 0;
};

}  // namespace askel
