#include <algorithm>

#include "sm/trackers.hpp"

namespace askel {

// ---------------------------------------------------------------- fan-out --
//
// Figure 4: @bs stores sti; @as updates t(fs) and |fs|; children run their
// own machines; @bm stores mti; @am updates t(fm) and moves to F.

void FanOutTracker::on_event(const Event& ev, EstimateRegistry& reg) {
  switch (ev.where) {
    case Where::kSplit:
      if (track(split_, ev, fan().fs(), reg)) {
        reg.observe_cardinality(split_->muscle_id, depth_,
                                static_cast<double>(split_->cardinality));
      }
      break;
    case Where::kMerge:
      track(merge_, ev, fan().fm(), reg);
      break;
    case Where::kSkeleton:
      if (ev.when == When::kAfter) mark_finished();
      break;
    default:
      break;
  }
}

std::vector<int> FanOutTracker::contribute(SnapshotCtx& c,
                                           std::vector<int> preds) const {
  // Not even the split has started: the whole instance is expected-only.
  if (!split_) return expand_expected(*node_, c.est, c.g, preds, c.limits, depth_);
  return contribute_split(c, std::move(preds));
}

std::vector<int> FanOutTracker::contribute_split(SnapshotCtx& c,
                                                 std::vector<int> preds) const {
  const int split_id = add_record(c, *split_, std::move(preds));
  std::vector<int> merge_preds;
  for (const TrackerPtr& child : children_) {
    std::vector<int> t = child->contribute(c, {split_id});
    merge_preds.insert(merge_preds.end(), t.begin(), t.end());
  }

  long card;
  if (split_->done()) {
    card = split_->cardinality;
  } else {
    bool known = false;
    card = rounded_cardinality(c.est, split_->muscle_id,
                               static_cast<long>(children_.size()), &known, depth_);
    if (!known) c.g.complete_estimates = false;
  }
  // Started elements occupy the lowest indices.
  for (auto i = static_cast<long>(children_.size()); i < card; ++i) {
    std::vector<int> t = expect_element(c, static_cast<std::size_t>(i), split_id);
    merge_preds.insert(merge_preds.end(), t.begin(), t.end());
  }
  if (merge_preds.empty()) merge_preds = {split_id};

  if (merge_) return {add_record(c, *merge_, std::move(merge_preds))};
  return {add_pending_muscle(c.g, c.est, fan().fm(), std::move(merge_preds), depth_)};
}

std::vector<int> FanOutTracker::expect_element(SnapshotCtx& c, std::size_t i,
                                               int split_id) const {
  return expand_expected(fan().element(i), c.est, c.g, {split_id}, c.limits,
                         depth_ + 1);
}

// -------------------------------------------------------------------- d&C --
//
// |fc| for d&C = estimated depth of the recursion tree (paper §4). Each
// dynamic instance is one recursion level: an instance sets `level_` on the
// elements that attach to it, and the level-0 instance observes
// divide_depth() into the registry when it finishes. A d&C node nested as
// another's leaf is a different node, so its root starts again at level 0.

void DacTracker::on_event(const Event& ev, EstimateRegistry& reg) {
  if (ev.where == Where::kCondition) {
    track(cond_, ev, dac().fc(), reg);
    return;
  }
  FanOutTracker::on_event(ev, reg);
  if (level_ == 0 && ev.where == Where::kSkeleton && ev.when == When::kAfter) {
    reg.observe_cardinality(dac().fc().id(), static_cast<double>(divide_depth()));
  }
}

void DacTracker::attach_child(TrackerPtr child) {
  // Only this instance's elements run this node (a leaf ∆ is another node).
  if (child->node() == node_) static_cast<DacTracker&>(*child).level_ = level_ + 1;
  FanOutTracker::attach_child(std::move(child));
}

long DacTracker::divide_depth() const {
  if (!divided()) return 0;
  long deepest = 0;
  for (const TrackerPtr& child : children_) {
    if (child->node() == node_) {
      const auto& element = static_cast<const DacTracker&>(*child);
      deepest = std::max(deepest, element.divide_depth());
    }
  }
  return 1 + deepest;
}

std::vector<int> DacTracker::contribute(SnapshotCtx& c, std::vector<int> preds) const {
  if (!cond_) {
    return expand_expected_dac(dac(), c.est, c.g, preds, level_, c.limits, depth_);
  }
  const int cond_id = add_record(c, *cond_, std::move(preds));

  if (!cond_->done()) {
    // Condition still running: assume the estimated-depth decision.
    bool known = false;
    const long rec_depth =
        rounded_cardinality(c.est, dac().fc().id(), 0, &known, depth_);
    if (!known) c.g.complete_estimates = false;
    return expand_dac_body(dac(), c.est, c.g, {cond_id}, level_, level_ < rec_depth,
                           c.limits, depth_);
  }

  if (!divided()) {
    // Leaf: the nested ∆ handles this element.
    if (!children_.empty()) return children_[0]->contribute(c, {cond_id});
    return expand_expected(*node_->children()[0], c.est, c.g, {cond_id}, c.limits,
                           depth_ + 1);
  }

  if (!split_) {
    // Divide decided but split not yet started (sub-microsecond window).
    return expand_dac_body(dac(), c.est, c.g, {cond_id}, level_, true, c.limits,
                           depth_);
  }
  return contribute_split(c, {cond_id});
}

std::vector<int> DacTracker::expect_element(SnapshotCtx& c, std::size_t,
                                            int split_id) const {
  return expand_expected_dac(dac(), c.est, c.g, {split_id}, level_ + 1, c.limits,
                             depth_ + 1);
}

}  // namespace askel
