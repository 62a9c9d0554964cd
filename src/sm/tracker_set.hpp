#pragma once
// TrackerSet: routes events to per-instance trackers, maintains the dynamic
// nesting tree, and assembles whole-run AdgSnapshots on demand.
//
// Register it on the engine's EventBus (as_listener()); it then mirrors every
// execution it observes. One TrackerSet normally tracks one run at a time;
// `snapshot` works on the most recently started root instance.

#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "events/event_bus.hpp"
#include "sm/trackers.hpp"

namespace askel {

class TrackerSet {
 public:
  explicit TrackerSet(EstimateRegistry& reg);

  /// Feed one event (thread-safe; normally called via the bus listener).
  void on_event(const Event& ev);

  /// Listener adapter for EventBus registration.
  EventBus::ListenerPtr as_listener();

  /// Build the ADG of the current root at observation time `now`, or at the
  /// newest event timestamp ingested when that is later: a caller reads its
  /// clock before the set's lock, and an event stamped in between must not
  /// put an activity that ends in the future into the graph.
  /// Returns an empty snapshot if no execution has been observed.
  AdgSnapshot snapshot(TimePoint now) const;

  /// Root tracker of the most recently started execution (null if none).
  TrackerPtr current_root() const;
  bool root_finished() const;
  std::size_t tracked_instances() const;

  /// Forget all trackers (estimates in the registry are kept).
  void reset();

  /// Expansion guard applied when building snapshots.
  ExpandLimits limits;

 private:
  // Serializes every tracker event and snapshot, and with them every write
  // the trackers make to reg_ and every reg_ snapshot they take.
  mutable std::mutex mu_;
  EstimateRegistry& reg_;
  EventBus::ListenerPtr listener_;  // lazily-built shared bus adapter
  std::unordered_map<std::int64_t, TrackerPtr> by_exec_;
  std::vector<TrackerPtr> roots_;
  TimePoint newest_event_ = std::numeric_limits<TimePoint>::lowest();
};

}  // namespace askel
