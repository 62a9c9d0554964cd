#include "sm/trackers.hpp"

namespace askel {

// Figure 3: seq(fe)@b(i) stores the start timestamp; seq(fe)@a(i) updates
// t(fe) = ρ(now − eti) + (1−ρ)t(fe) and moves to F.
void SeqTracker::on_event(const Event& ev, EstimateRegistry& reg) {
  const auto& seq = static_cast<const SeqNode&>(*node_);
  if (ev.where == Where::kExecute && track(fe_, ev, seq.fe(), reg)) mark_finished();
}

std::vector<int> SeqTracker::contribute(SnapshotCtx& c, std::vector<int> preds) const {
  if (!fe_) return expand_expected(*node_, c.est, c.g, preds, c.limits, depth_);
  return {add_record(c, *fe_, std::move(preds))};
}

}  // namespace askel
