#include "sm/trackers.hpp"

namespace askel {

// ------------------------------------------------------ pipe / farm / for --

void ChainTracker::on_event(const Event& ev, EstimateRegistry&) {
  if (ev.where == Where::kSkeleton && ev.when == When::kAfter) mark_finished();
}

std::vector<int> ChainTracker::contribute(SnapshotCtx& c, std::vector<int> preds) const {
  // Child k runs stage k of a pipe, a farm's one child, or a for's body.
  const auto kids = node_->children();
  const std::size_t n = node_->kind() == SkelKind::kFor
                            ? static_cast<std::size_t>(
                                  static_cast<const ForNode&>(*node_).iterations())
                            : kids.size();
  std::vector<int> cur = std::move(preds);
  std::size_t k = 0;
  // Children run strictly in order, so the attached ones are 0..k-1.
  for (; k < children_.size(); ++k) cur = children_[k]->contribute(c, std::move(cur));
  for (; k < n; ++k) {
    cur = expand_expected(*kids[k % kids.size()], c.est, c.g, cur, c.limits,
                          depth_ + 1);
  }
  return cur;
}

// --------------------------------------------------------------------- if --
//
// The paper's v1.1b1 does not support If ("produces a duplication of the
// whole ADG"); we track the chosen branch once the condition result is known
// and expand the true branch as the expectation before that.

void IfTracker::on_event(const Event& ev, EstimateRegistry& reg) {
  if (ev.where == Where::kCondition) {
    track(cond_, ev, *node_->muscles()[0], reg);
  } else if (ev.where == Where::kSkeleton && ev.when == When::kAfter) {
    mark_finished();
  }
}

std::vector<int> IfTracker::contribute(SnapshotCtx& c, std::vector<int> preds) const {
  if (!cond_) return expand_expected(*node_, c.est, c.g, preds, c.limits, depth_);
  const std::vector<int> cur = {add_record(c, *cond_, std::move(preds))};
  if (!children_.empty()) return children_[0]->contribute(c, cur);
  const auto& n = static_cast<const IfNode&>(*node_);
  const SkelNode* branch = cond_->done()
                               ? (cond_->cond_result ? n.true_branch() : n.false_branch())
                               : n.true_branch();
  return expand_expected(*branch, c.est, c.g, cur, c.limits, depth_ + 1);
}

}  // namespace askel
