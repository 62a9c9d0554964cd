#pragma once
// Thread-safe registry of muscle estimates, keyed by muscle id.
//
// Writers are the state machines (on After events, from worker threads);
// readers are the ADG expansion and the autonomic controller. Readers take a
// consistent `Estimates` snapshot so a whole scheduling computation sees one
// coherent set of values.
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
// Concurrency layout (hot paths scale with work done, not state size):
//  * writes and point lookups lock only one of kEstimateFragments
//    muscle-id-sharded mutexes (both layers of a muscle live in the same
//    shard), so state machines on different workers updating different
//    muscles never contend;
//  * every write bumps its shard's version (under the shard lock) and a
//    global atomic version counter;
//  * `Estimates` is fragmented along the same muscle-id sharding. snapshot()
//    keeps a per-shard fragment cache: a rebuild copies only the shards
//    written since the previous snapshot and splices every clean shard in by
//    shared_ptr bump — O(dirty shards), not O(muscles);
//  * the clean path (no writes at all since the last snapshot) is lock-free:
//    one atomic version load plus a cached shared_ptr bump.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "est/muscle_stats.hpp"

namespace askel {

enum class EstimationScope : int {
  kAggregate,  // per-muscle (the paper's implementation)
  kPerDepth,   // per (muscle, nesting depth), falling back to aggregate
};

/// Depth value representing the aggregate (depth-less) layer.
inline constexpr int kAnyDepth = -1;

/// Shard fan-out shared by EstimateRegistry and Estimates. The two MUST use
/// the same muscle-id -> shard mapping so a registry shard rebuilds exactly
/// one snapshot fragment.
inline constexpr std::size_t kEstimateFragments = 16;

/// Composite key: (muscle id, depth). Depth kAnyDepth = aggregate layer.
std::int64_t estimate_key(int muscle_id, int depth);
/// Inverse of estimate_key.
int estimate_key_muscle(std::int64_t key);
int estimate_key_depth(std::int64_t key);

/// Immutable value snapshot of the registry.
///
/// Internally fragmented along the registry's muscle-id sharding: each of
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
  /// Fragment a muscle's entries live in (same mapping as the registry's
  /// shard_for — keep the casts identical).
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

  /// Consistent snapshot of everything. Lock-free when nothing was written
  /// since the previous call (the controller's back-to-back decision case):
  /// one version load + a cached shared_ptr bump. Otherwise rebuilds ONLY
  /// the shards written since the last snapshot — locking only those shards
  /// — and splices the rest in by shared_ptr bump: O(dirty shards), not
  /// O(muscles). A global-version recheck (bounded retry, then a lock-all
  /// fallback) keeps the result a coherent cut even though clean shards are
  /// spliced without their locks.
  Estimates snapshot() const;
  /// Monotonic write counter; bumped by every observe/init/clear. Exposed
  /// for tests and monitoring ("did anything change since I last looked?").
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }
  double rho() const { return rho_; }
  EstimationScope scope() const { return scope_; }
  void clear();

 private:
  // One shard per group of muscle ids; both layers (aggregate + per-depth)
  // of a muscle live in its shard, so point lookups with depth fallback
  // still take a single lock. Shard index == Estimates fragment index.
  static constexpr std::size_t kShards = kEstimateFragments;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::int64_t, MuscleStats> stats;
    // Bumped (store-release) under mu by every write to this shard. Atomic
    // so the snapshot's per-shard clean check can read it WITHOUT taking mu
    // — a rebuild locks only the shards whose version moved; reading a stale
    // value is caught by the rebuild's global-version recheck.
    std::atomic<std::uint64_t> version{0};
    // Fragment cache: the Estimates fragment built from `stats` at
    // `frag_version`. Guarded by snap_mu_, NOT by mu — only snapshot()
    // (which serializes on snap_mu_) ever touches it; writers never look.
    std::shared_ptr<const Estimates::Map> frag;
    std::uint64_t frag_version = 0;
  };
  Shard& shard_for(int muscle_id) const;
  /// Lock every shard (fixed index order; excludes all writers at once).
  std::vector<std::unique_lock<std::mutex>> lock_all_shards() const;
  MuscleStats& stats_locked(Shard& s, std::int64_t key);
  static std::optional<double> t_locked(const Shard& s, std::int64_t key);
  static std::optional<double> card_locked(const Shard& s, std::int64_t key);
  void bump_version();

  double rho_;
  EstimationScope scope_;
  mutable std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> version_{0};

  // Whole-snapshot cache for the lock-free clean path: the last snapshot
  // built, tagged with the global version it was built at. Readers load it
  // with one atomic shared_ptr load; rebuilds publish a fresh node.
  struct CleanSnap {
    std::uint64_t version;
    Estimates snap;
  };
  mutable std::atomic<std::shared_ptr<const CleanSnap>> clean_cache_{};
  // Serializes rebuilds only (never taken by writers or the clean path).
  mutable std::mutex snap_mu_;
};

}  // namespace askel
