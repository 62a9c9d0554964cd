#include <algorithm>

#include "sm/trackers.hpp"

namespace askel {

// |fc| for While = estimated number of times the condition returns true over
// one execution (paper §4). The tracker counts observed `true` results and
// folds the count into the registry when the final `false` arrives.

void WhileTracker::on_event(const Event& ev, EstimateRegistry& reg) {
  switch (ev.where) {
    case Where::kCondition:
      if (ev.when == When::kBefore) {
        conds_.push_back(open_rec(ev, *node_->muscles()[0]));
      } else if (!conds_.empty() && !conds_.back().done()) {
        MuscleRec& rec = conds_.back();
        close_rec(rec, ev);
        observe_duration_of(reg, rec);
        if (ev.condition_result) {
          ++true_count_;
        } else {
          reg.observe_cardinality(rec.muscle_id, depth_,
                                  static_cast<double>(true_count_));
        }
      }
      break;
    case Where::kSkeleton:
      if (ev.when == When::kAfter) mark_finished();
      break;
    default:
      break;
  }
}

std::vector<int> WhileTracker::contribute(SnapshotCtx& c, std::vector<int> preds) const {
  if (conds_.empty())
    return expand_expected(*node_, c.est, c.g, preds, c.limits, depth_);
  const SkelNode& body = *node_->children()[0];
  const ConditionMuscle& fc = *static_cast<const ConditionMuscle*>(node_->muscles()[0]);

  std::vector<int> cur = std::move(preds);
  std::size_t child_cursor = 0;
  bool cond_running = false;
  for (const MuscleRec& rec : conds_) {
    cur = {add_record(c, rec, std::move(cur))};
    if (!rec.done()) {
      cond_running = true;
      break;
    }
    if (rec.cond_result) {
      if (child_cursor < children_.size()) {
        cur = children_[child_cursor++]->contribute(c, std::move(cur));
      } else {
        // Body queued but its first event has not arrived yet.
        cur = expand_expected(body, c.est, c.g, cur, c.limits, depth_ + 1);
      }
    }
  }
  if (finished_) return cur;

  // Expected tail: remaining = |fc| estimate minus observed `true` results.
  bool known = false;
  const long est_total =
      rounded_cardinality(c.est, fc.id(), true_count_, &known, depth_);
  if (!known) c.g.complete_estimates = false;
  const long remaining = std::max<long>(0, est_total - true_count_);

  if (cond_running) {
    // The running condition counts as the next of the `remaining` trues (if
    // any are expected); its body and the rest of the loop follow it.
    if (remaining > 0) {
      cur = expand_expected(body, c.est, c.g, cur, c.limits, depth_ + 1);
      for (long k = 1; k < remaining; ++k) {
        cur = {add_pending_muscle(c.g, c.est, fc, std::move(cur), depth_)};
        cur = expand_expected(body, c.est, c.g, cur, c.limits, depth_ + 1);
      }
      cur = {add_pending_muscle(c.g, c.est, fc, std::move(cur), depth_)};
    }
    return cur;
  }
  // Last recorded step was a completed body (or its expectation): the next
  // condition is pending, then the remaining loop turns, then the final
  // (false) condition.
  for (long k = 0; k < remaining; ++k) {
    cur = {add_pending_muscle(c.g, c.est, fc, std::move(cur), depth_)};
    cur = expand_expected(body, c.est, c.g, cur, c.limits, depth_ + 1);
  }
  cur = {add_pending_muscle(c.g, c.est, fc, std::move(cur), depth_)};
  return cur;
}

}  // namespace askel
