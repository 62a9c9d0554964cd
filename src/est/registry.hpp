#pragma once
// Registry of muscle estimates, keyed by muscle id.
//
// Writers are the state machines (on After events); readers are the ADG
// expansion and the autonomic controller. Readers take a consistent
// `Estimates` snapshot so a whole scheduling computation sees one coherent
// set of values.
//
// Two estimation scopes are supported:
//  * kAggregate (the paper's Skandium v1.1b1): one t(m)/|m| per muscle
//    object. Sharing a muscle across nesting levels (Listing 1 shares fs and
//    fm) deliberately shares — and conflates — its estimate.
//  * kPerDepth (this repo's implementation of the paper's §6 future work on
//    "different WCT estimation algorithms"): estimates are additionally kept
//    per dynamic nesting depth, and lookups prefer the depth-specific value.
//    This eliminates the outer-vs-inner split conflation of the §5 workload.
//
// Observations always record BOTH layers, so the scope can be chosen at
// lookup time and snapshots carry everything.
//
// Locking: one mutex guards the whole registry. In the library every write
// and every snapshot already runs under TrackerSet::mu_ (the trackers are
// the only writers during a run, and each TrackerSet owns its registry), so
// this lock is uncontended there; it keeps direct use from several threads
// safe. Snapshots stay incremental: the stats live in kEstimateFragments
// muscle-id fragments, snapshot() rebuilds only the fragments written since
// the previous call and splices the rest by shared_ptr bump, and a call with
// no write since the previous one returns the previous snapshot.

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "est/muscle_stats.hpp"

namespace askel {

enum class EstimationScope : int {
  kAggregate,  // per-muscle (the paper's implementation)
  kPerDepth,   // per (muscle, nesting depth), falling back to aggregate
};

/// Depth value representing the aggregate (depth-less) layer.
inline constexpr int kAnyDepth = -1;

/// Fragment count shared by EstimateRegistry and Estimates: a registry
/// fragment rebuilds exactly one snapshot fragment.
inline constexpr std::size_t kEstimateFragments = 16;

/// Composite key: (muscle id, depth). Depth kAnyDepth = aggregate layer.
std::int64_t estimate_key(int muscle_id, int depth);
/// Inverse of estimate_key.
int estimate_key_muscle(std::int64_t key);
int estimate_key_depth(std::int64_t key);

/// Immutable value snapshot of the registry.
///
/// Internally fragmented by muscle id, as the registry is: each of
/// kEstimateFragments fragments is an independently shared map, and the
/// fragment-pointer array itself sits behind one more shared_ptr. Copying an
/// Estimates is therefore a SINGLE refcount bump (the controller's
/// back-to-back clean-snapshot case — atomic refcounts are lock-prefixed RMWs
/// once the process is multithreaded, so one bump vs sixteen is measurable);
/// a mutation copy-on-shared-writes the pointer array once and then only the
/// one fragment the touched muscle lives in. This keeps snapshot()
/// value-semantic — callers may still hold or mutate their copy freely —
/// while letting the registry splice unchanged fragments between successive
/// snapshots without copying them. Mutating one instance concurrently with
/// copying that same instance is not supported (value semantics, same as any
/// standard container).
class Estimates {
 public:
  struct Entry {
    std::optional<double> t;
    std::optional<double> card;
  };
  using Map = std::unordered_map<std::int64_t, Entry>;

  static constexpr std::size_t kFragments = kEstimateFragments;
  /// Fragment a muscle's entries live in, here and in the registry.
  static std::size_t fragment_of(int muscle_id) {
    return static_cast<std::size_t>(muscle_id) % kFragments;
  }

  /// Aggregate lookups (depth-less).
  std::optional<double> t(int muscle_id) const;
  std::optional<double> cardinality(int muscle_id) const;
  double t_or(int muscle_id, double fallback) const;
  double cardinality_or(int muscle_id, double fallback) const;
  bool has_t(int muscle_id) const { return t(muscle_id).has_value(); }

  /// Depth-aware lookups: per-depth value when the snapshot's scope is
  /// kPerDepth and one exists, else the aggregate value.
  std::optional<double> t(int muscle_id, int depth) const;
  std::optional<double> cardinality(int muscle_id, int depth) const;

  /// Store an aggregate entry (tests and hand-built estimate sets).
  void set(int muscle_id, Entry e);
  /// Store a depth-specific entry.
  void set(int muscle_id, int depth, Entry e);

  EstimationScope scope() const { return scope_; }
  void set_scope(EstimationScope s) { scope_ = s; }

  std::size_t size() const;

  /// Visit every (composite key, entry) pair across all fragments.
  /// Iteration order is unspecified (it was never specified for the old
  /// single-map layout either).
  template <class F>
  void for_each(F&& f) const {
    if (!frags_) return;
    for (const auto& frag : *frags_) {
      if (!frag) continue;
      for (const auto& [key, entry] : *frag) f(key, entry);
    }
  }

  /// The shared fragment map at index `i` (null = empty). Exposed so tests
  /// can verify storage sharing/splicing and so the registry can splice
  /// clean fragments directly.
  std::shared_ptr<const Map> fragment(std::size_t i) const {
    return frags_ ? (*frags_)[i] : nullptr;
  }
  /// Registry-side splice: install a prebuilt fragment.
  void set_fragment(std::size_t i, std::shared_ptr<const Map> frag) {
    mutable_frags()[i] = std::move(frag);
  }

 private:
  using FragArray = std::array<std::shared_ptr<const Map>, kFragments>;

  const Map* frag_for(int muscle_id) const {
    return frags_ ? (*frags_)[fragment_of(muscle_id)].get() : nullptr;
  }
  FragArray& mutable_frags();
  Map& mutable_fragment(std::size_t i);

  EstimationScope scope_ = EstimationScope::kAggregate;
  // const FragArray of const Maps: both levels are immutable once shared; a
  // write clones the array (and the touched fragment) first. Null = empty.
  std::shared_ptr<const FragArray> frags_{};
};

class EstimateRegistry {
 public:
  /// The paper's EWMA at `rho` for every muscle entry (both layers,
  /// duration and cardinality). Throws std::invalid_argument unless rho is
  /// in [0,1].
  explicit EstimateRegistry(double rho = 0.5,
                            EstimationScope scope = EstimationScope::kAggregate);

  /// Record an observation at a known nesting depth (both layers updated).
  void observe_duration(int muscle_id, int depth, double seconds);
  void observe_cardinality(int muscle_id, int depth, double card);
  /// Depth-less convenience (updates only the aggregate layer).
  void observe_duration(int muscle_id, double seconds);
  void observe_cardinality(int muscle_id, double card);

  /// Paper scenario 2 ("Goal with initialization"): seed estimates, e.g.
  /// from a previous run exported with `snapshot()`.
  void init_duration(int muscle_id, double seconds);
  void init_cardinality(int muscle_id, double card);
  void init_duration(int muscle_id, int depth, double seconds);
  void init_cardinality(int muscle_id, int depth, double card);
  /// Seed every estimate present in `previous` (both layers).
  void init_from(const Estimates& previous);

  std::optional<double> t(int muscle_id) const;
  std::optional<double> cardinality(int muscle_id) const;
  std::optional<double> t(int muscle_id, int depth) const;
  std::optional<double> cardinality(int muscle_id, int depth) const;

  /// Consistent snapshot of everything. Returns the previous snapshot when
  /// nothing was written since it was taken (the controller's back-to-back
  /// decision case: one shared_ptr bump). Otherwise rebuilds ONLY the
  /// fragments written since then and splices the rest in by shared_ptr
  /// bump: O(written fragments), not O(muscles).
  Estimates snapshot() const;
  /// Monotonic write counter; bumped by every observe/init/clear. Exposed
  /// for tests and monitoring ("did anything change since I last looked?").
  std::uint64_t version() const;
  double rho() const { return rho_; }
  EstimationScope scope() const { return scope_; }
  void clear();

 private:
  // Both layers (aggregate + per-depth) of a muscle live in one fragment,
  // the one its Estimates entries live in.
  struct Fragment {
    std::unordered_map<std::int64_t, MuscleStats> stats;
    // The snapshot fragment last built from `stats`, stale once `dirty`.
    std::shared_ptr<const Estimates::Map> built;
    bool dirty = true;
  };
  /// The stats of `(muscle_id, depth)`, created on first use; marks the
  /// write. Caller holds mu_.
  MuscleStats& write(int muscle_id, int depth);
  /// The stats of `(muscle_id, depth)`, or null. Caller holds mu_.
  const MuscleStats* find(int muscle_id, int depth) const;

  double rho_;
  EstimationScope scope_;
  mutable std::mutex mu_;
  // mutable: snapshot() refreshes the built fragments and its cache.
  mutable std::array<Fragment, kEstimateFragments> frags_;
  std::uint64_t version_ = 0;
  // The last snapshot and the version it was taken at (none yet: the
  // sentinel matches no version).
  mutable Estimates snap_;
  mutable std::uint64_t snap_version_ = std::numeric_limits<std::uint64_t>::max();
};

}  // namespace askel
