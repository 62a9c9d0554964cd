#include "sm/tracker_set.hpp"

#include <algorithm>

#include "events/listener.hpp"

namespace askel {

// ---------------------------------------------------------------- Tracker --

Tracker::Tracker(const SkelNode* node, std::int64_t exec_id,
                 std::int64_t parent_exec_id)
    : node_(node), exec_id_(exec_id), parent_exec_id_(parent_exec_id) {}

int Tracker::add_record(SnapshotCtx& c, const MuscleRec& rec,
                        std::vector<int> preds) const {
  if (rec.done()) {
    return c.g.add(
        make_done(rec.muscle_id, rec.label, rec.start, *rec.end, std::move(preds)));
  }
  const auto t = c.est.t(rec.muscle_id, depth_);
  Activity a = make_running(rec.muscle_id, rec.label, rec.start, t.value_or(0.0),
                            std::move(preds));
  a.has_estimate = t.has_value();
  return c.g.add(std::move(a));
}

void Tracker::observe_duration_of(EstimateRegistry& reg, const MuscleRec& rec) const {
  reg.observe_duration(rec.muscle_id, depth_, *rec.end - rec.start);
}

MuscleRec Tracker::open_rec(const Event& ev, const Muscle& m) {
  MuscleRec r;
  r.muscle_id = ev.muscle_id;
  r.label = m.name();
  r.start = ev.timestamp;
  return r;
}

void Tracker::close_rec(MuscleRec& rec, const Event& ev) {
  rec.end = ev.timestamp;
  rec.cond_result = ev.condition_result;
  rec.cardinality = ev.cardinality;
}

bool Tracker::track(std::optional<MuscleRec>& rec, const Event& ev, const Muscle& m,
                    EstimateRegistry& reg) {
  if (ev.when == When::kBefore) {
    rec = open_rec(ev, m);
    return false;
  }
  if (!rec || rec->done()) return false;
  close_rec(*rec, ev);
  observe_duration_of(reg, *rec);
  return true;
}

TrackerPtr make_tracker(const SkelNode* node, const Event& ev) {
  switch (node->kind()) {
    case SkelKind::kSeq:
      return std::make_shared<SeqTracker>(node, ev.exec_id, ev.parent_exec_id);
    case SkelKind::kFarm:
    case SkelKind::kPipe:
    case SkelKind::kFor:
      return std::make_shared<ChainTracker>(node, ev.exec_id, ev.parent_exec_id);
    case SkelKind::kWhile:
      return std::make_shared<WhileTracker>(node, ev.exec_id, ev.parent_exec_id);
    case SkelKind::kIf:
      return std::make_shared<IfTracker>(node, ev.exec_id, ev.parent_exec_id);
    case SkelKind::kMap:
    case SkelKind::kFork:
      return std::make_shared<FanOutTracker>(node, ev.exec_id, ev.parent_exec_id);
    case SkelKind::kDaC:
      return std::make_shared<DacTracker>(node, ev.exec_id, ev.parent_exec_id);
  }
  return nullptr;  // unreachable
}

// ------------------------------------------------------------- TrackerSet --

TrackerSet::TrackerSet(EstimateRegistry& reg) : reg_(reg) {}

void TrackerSet::on_event(const Event& ev) {
  if (ev.exec_id < 0 || ev.node == nullptr) return;
  std::lock_guard lock(mu_);
  newest_event_ = std::max(newest_event_, ev.timestamp);
  TrackerPtr t;
  const auto it = by_exec_.find(ev.exec_id);
  if (it != by_exec_.end()) {
    t = it->second;
  } else {
    t = make_tracker(ev.node, ev);
    by_exec_.emplace(ev.exec_id, t);
    const auto pit = by_exec_.find(ev.parent_exec_id);
    if (pit != by_exec_.end()) {
      pit->second->attach_child(t);
    } else {
      roots_.push_back(t);
    }
  }
  t->on_event(ev, reg_);
}

EventBus::ListenerPtr TrackerSet::as_listener() {
  // One shared adapter for the set's lifetime: repeated registration (e.g. a
  // bus per run sharing one TrackerSet) must not allocate a fresh listener
  // each time. Delivery semantics are unchanged — registering the same
  // adapter twice still yields two registration-order slots.
  std::lock_guard lock(mu_);
  if (!listener_) {
    listener_ = std::make_shared<ObserverListener>(
        [this](const Event& ev) { on_event(ev); });
  }
  return listener_;
}

AdgSnapshot TrackerSet::snapshot(TimePoint now) const {
  std::lock_guard lock(mu_);
  AdgSnapshot g;
  g.now = std::max(now, newest_event_);
  if (roots_.empty()) return g;
  const Estimates est = reg_.snapshot();
  SnapshotCtx c{g, est, limits};
  roots_.back()->contribute(c, {});
  return g;
}

TrackerPtr TrackerSet::current_root() const {
  std::lock_guard lock(mu_);
  return roots_.empty() ? nullptr : roots_.back();
}

bool TrackerSet::root_finished() const {
  const TrackerPtr r = current_root();
  return r && r->finished();
}

std::size_t TrackerSet::tracked_instances() const {
  std::lock_guard lock(mu_);
  return by_exec_.size();
}

void TrackerSet::reset() {
  std::lock_guard lock(mu_);
  by_exec_.clear();
  roots_.clear();
  newest_event_ = std::numeric_limits<TimePoint>::lowest();
}

}  // namespace askel
