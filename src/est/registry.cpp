#include "est/registry.hpp"

namespace askel {

std::int64_t estimate_key(int muscle_id, int depth) {
  // Depths are small (trace length); bias by 1 so kAnyDepth maps to 0.
  return (static_cast<std::int64_t>(muscle_id) << 20) |
         static_cast<std::int64_t>(depth + 1);
}

int estimate_key_muscle(std::int64_t key) { return static_cast<int>(key >> 20); }

int estimate_key_depth(std::int64_t key) {
  return static_cast<int>(key & 0xFFFFF) - 1;
}

// -------------------------------------------------------------- Estimates --

Estimates::FragArray& Estimates::mutable_frags() {
  if (!frags_) {
    auto fresh = std::make_shared<FragArray>();
    FragArray& ref = *fresh;
    frags_ = std::move(fresh);
    return ref;
  }
  if (frags_.use_count() > 1) {
    auto clone = std::make_shared<FragArray>(*frags_);  // copy-on-shared-write
    FragArray& ref = *clone;
    frags_ = std::move(clone);
    return ref;
  }
  // Sole owner: mutate in place (same reasoning as mutable_fragment below).
  return const_cast<FragArray&>(*frags_);
}

Estimates::Map& Estimates::mutable_fragment(std::size_t i) {
  std::shared_ptr<const Map>& frag = mutable_frags()[i];
  if (!frag) {
    auto fresh = std::make_shared<Map>();
    Map& ref = *fresh;
    frag = std::move(fresh);
    return ref;
  }
  if (frag.use_count() > 1) {
    auto clone = std::make_shared<Map>(*frag);  // copy-on-shared-write
    Map& ref = *clone;
    frag = std::move(clone);
    return ref;
  }
  // Sole owner: mutate in place. The const in the shared_ptr type documents
  // "immutable once shared"; with use_count()==1 nobody else can observe it.
  return const_cast<Map&>(*frag);
}

std::optional<double> Estimates::t(int muscle_id) const {
  const Map* m = frag_for(muscle_id);
  if (!m) return std::nullopt;
  const auto it = m->find(estimate_key(muscle_id, kAnyDepth));
  return it == m->end() ? std::nullopt : it->second.t;
}

std::optional<double> Estimates::cardinality(int muscle_id) const {
  const Map* m = frag_for(muscle_id);
  if (!m) return std::nullopt;
  const auto it = m->find(estimate_key(muscle_id, kAnyDepth));
  return it == m->end() ? std::nullopt : it->second.card;
}

double Estimates::t_or(int muscle_id, double fallback) const {
  return t(muscle_id).value_or(fallback);
}

double Estimates::cardinality_or(int muscle_id, double fallback) const {
  return cardinality(muscle_id).value_or(fallback);
}

std::optional<double> Estimates::t(int muscle_id, int depth) const {
  if (scope_ == EstimationScope::kPerDepth) {
    if (const Map* m = frag_for(muscle_id)) {
      const auto it = m->find(estimate_key(muscle_id, depth));
      if (it != m->end() && it->second.t) return it->second.t;
    }
  }
  return t(muscle_id);
}

std::optional<double> Estimates::cardinality(int muscle_id, int depth) const {
  if (scope_ == EstimationScope::kPerDepth) {
    if (const Map* m = frag_for(muscle_id)) {
      const auto it = m->find(estimate_key(muscle_id, depth));
      if (it != m->end() && it->second.card) return it->second.card;
    }
  }
  return cardinality(muscle_id);
}

void Estimates::set(int muscle_id, Entry e) {
  mutable_fragment(fragment_of(muscle_id))[estimate_key(muscle_id, kAnyDepth)] =
      e;
}

void Estimates::set(int muscle_id, int depth, Entry e) {
  mutable_fragment(fragment_of(muscle_id))[estimate_key(muscle_id, depth)] = e;
}

std::size_t Estimates::size() const {
  std::size_t n = 0;
  if (!frags_) return n;
  for (const auto& frag : *frags_) {
    if (frag) n += frag->size();
  }
  return n;
}

// ------------------------------------------------------- EstimateRegistry --

// Validate eagerly (Ewma's check): a bad rho must throw here, not on the
// first observation from a worker thread.
EstimateRegistry::EstimateRegistry(double rho, EstimationScope scope)
    : rho_(Ewma(rho).rho()), scope_(scope) {}

EstimateRegistry::Shard& EstimateRegistry::shard_for(int muscle_id) const {
  return shards_[static_cast<std::size_t>(muscle_id) % kShards];
}

MuscleStats& EstimateRegistry::stats_locked(Shard& s, std::int64_t key) {
  return s.stats.try_emplace(key, rho_).first->second;
}

void EstimateRegistry::bump_version() {
  version_.fetch_add(1, std::memory_order_release);
}

void EstimateRegistry::observe_duration(int muscle_id, int depth, double seconds) {
  Shard& s = shard_for(muscle_id);
  {
    std::lock_guard lock(s.mu);
    stats_locked(s, estimate_key(muscle_id, kAnyDepth)).observe_duration(seconds);
    if (depth != kAnyDepth)
      stats_locked(s, estimate_key(muscle_id, depth)).observe_duration(seconds);
    s.version.store(s.version.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
  }
  bump_version();
}

void EstimateRegistry::observe_cardinality(int muscle_id, int depth, double card) {
  Shard& s = shard_for(muscle_id);
  {
    std::lock_guard lock(s.mu);
    stats_locked(s, estimate_key(muscle_id, kAnyDepth)).observe_cardinality(card);
    if (depth != kAnyDepth)
      stats_locked(s, estimate_key(muscle_id, depth)).observe_cardinality(card);
    s.version.store(s.version.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
  }
  bump_version();
}

void EstimateRegistry::observe_duration(int muscle_id, double seconds) {
  observe_duration(muscle_id, kAnyDepth, seconds);
}

void EstimateRegistry::observe_cardinality(int muscle_id, double card) {
  observe_cardinality(muscle_id, kAnyDepth, card);
}

void EstimateRegistry::init_duration(int muscle_id, double seconds) {
  init_duration(muscle_id, kAnyDepth, seconds);
}

void EstimateRegistry::init_cardinality(int muscle_id, double card) {
  init_cardinality(muscle_id, kAnyDepth, card);
}

void EstimateRegistry::init_duration(int muscle_id, int depth, double seconds) {
  Shard& s = shard_for(muscle_id);
  {
    std::lock_guard lock(s.mu);
    stats_locked(s, estimate_key(muscle_id, depth)).init_duration(seconds);
    s.version.store(s.version.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
  }
  bump_version();
}

void EstimateRegistry::init_cardinality(int muscle_id, int depth, double card) {
  Shard& s = shard_for(muscle_id);
  {
    std::lock_guard lock(s.mu);
    stats_locked(s, estimate_key(muscle_id, depth)).init_cardinality(card);
    s.version.store(s.version.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
  }
  bump_version();
}

void EstimateRegistry::init_from(const Estimates& previous) {
  // All shards at once: readers must see the whole seeding or none of it,
  // same atomicity the old single-mutex registry gave.
  std::vector<std::unique_lock<std::mutex>> locks = lock_all_shards();
  previous.for_each([&](std::int64_t key, const Estimates::Entry& entry) {
    Shard& s = shard_for(estimate_key_muscle(key));
    MuscleStats& st = stats_locked(s, key);
    if (entry.t) st.init_duration(*entry.t);
    if (entry.card) st.init_cardinality(*entry.card);
    s.version.store(s.version.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
  });
  bump_version();
}

std::vector<std::unique_lock<std::mutex>> EstimateRegistry::lock_all_shards() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(kShards);
  for (Shard& s : shards_) locks.emplace_back(s.mu);
  return locks;
}

std::optional<double> EstimateRegistry::t_locked(const Shard& s, std::int64_t key) {
  const auto it = s.stats.find(key);
  return it == s.stats.end() ? std::nullopt : it->second.t();
}

std::optional<double> EstimateRegistry::card_locked(const Shard& s, std::int64_t key) {
  const auto it = s.stats.find(key);
  return it == s.stats.end() ? std::nullopt : it->second.cardinality();
}

std::optional<double> EstimateRegistry::t(int muscle_id) const {
  const Shard& s = shard_for(muscle_id);
  std::lock_guard lock(s.mu);
  return t_locked(s, estimate_key(muscle_id, kAnyDepth));
}

std::optional<double> EstimateRegistry::cardinality(int muscle_id) const {
  const Shard& s = shard_for(muscle_id);
  std::lock_guard lock(s.mu);
  return card_locked(s, estimate_key(muscle_id, kAnyDepth));
}

std::optional<double> EstimateRegistry::t(int muscle_id, int depth) const {
  const Shard& s = shard_for(muscle_id);
  std::lock_guard lock(s.mu);
  if (scope_ == EstimationScope::kPerDepth) {
    if (const auto v = t_locked(s, estimate_key(muscle_id, depth))) return v;
  }
  return t_locked(s, estimate_key(muscle_id, kAnyDepth));
}

std::optional<double> EstimateRegistry::cardinality(int muscle_id, int depth) const {
  const Shard& s = shard_for(muscle_id);
  std::lock_guard lock(s.mu);
  if (scope_ == EstimationScope::kPerDepth) {
    if (const auto v = card_locked(s, estimate_key(muscle_id, depth))) return v;
  }
  return card_locked(s, estimate_key(muscle_id, kAnyDepth));
}

Estimates EstimateRegistry::snapshot() const {
  // Clean fast path — lock-free: nothing written since the cached snapshot
  // was built, so return it again. One acquire load of the version, one
  // atomic shared_ptr load, and the Estimates copy (a single refcount bump:
  // the fragment array sits behind one shared_ptr).
  {
    const std::uint64_t v = version_.load(std::memory_order_acquire);
    const std::shared_ptr<const CleanSnap> c =
        clean_cache_.load(std::memory_order_acquire);
    if (c && c->version == v) return c->snap;
  }

  // Rebuild path. snap_mu_ serializes rebuilders only, and it is all the
  // protection the per-shard fragment caches need (writers never touch
  // them). Shard mutexes are taken ONLY for the shards whose version moved —
  // the common 1-dirty-shard rebuild pays one shard lock, not kShards.
  //
  // Coherence: splicing a clean shard's cached fragment without its lock
  // risks a torn cut only if a write lands in some shard mid-build. Any such
  // write we *observe* (by locking its shard's mutex, or by an acquire load
  // of its bumped shard version) makes the writer's earlier global-version
  // bumps visible too, so re-reading the global version after the build
  // detects the overlap and retries; shards rebuilt on a discarded attempt
  // stay cached, so the retry only splices. Two overlap retries mean
  // sustained writer traffic — fall back to locking all shards at once,
  // which excludes writers outright (the pre-PR 6 behavior, and the same
  // all-or-nothing cut init_from/clear rely on).
  std::lock_guard snap_lock(snap_mu_);
  for (int attempt = 0;; ++attempt) {
    const bool lock_all = attempt >= 2;
    // RAII locks: a bad_alloc during the build must not leave shards locked.
    std::vector<std::unique_lock<std::mutex>> all_locks;
    if (lock_all) all_locks = lock_all_shards();
    const std::uint64_t v0 = version_.load(std::memory_order_acquire);
    Estimates out;
    out.set_scope(scope_);
    for (std::size_t i = 0; i < kShards; ++i) {
      Shard& s = shards_[i];
      if (!s.frag ||
          s.frag_version != s.version.load(std::memory_order_acquire)) {
        // Dirty (or never built): rebuild this shard's fragment from
        // scratch, under its lock unless every shard is already held.
        std::unique_lock<std::mutex> lk;
        if (!lock_all) lk = std::unique_lock(s.mu);
        auto frag = std::make_shared<Estimates::Map>();
        frag->reserve(s.stats.size());
        for (const auto& [key, st] : s.stats) {
          (*frag)[key] = Estimates::Entry{st.t(), st.cardinality()};
        }
        s.frag = std::move(frag);
        // Exact under mu: writers bump the shard version before unlocking.
        s.frag_version = s.version.load(std::memory_order_relaxed);
      }
      // Clean shards splice straight in: one shared_ptr bump, zero copying.
      out.set_fragment(i, s.frag);
    }
    const std::uint64_t v1 = version_.load(std::memory_order_acquire);
    if (v1 != v0 && !lock_all) continue;  // a write overlapped the build
    clean_cache_.store(
        std::make_shared<const CleanSnap>(CleanSnap{lock_all ? v1 : v0, out}),
        std::memory_order_release);
    return out;
  }
}

void EstimateRegistry::clear() {
  // All shards at once: a concurrent snapshot must never see half a clear.
  std::vector<std::unique_lock<std::mutex>> locks = lock_all_shards();
  for (Shard& s : shards_) {
    s.stats.clear();
    s.version.store(s.version.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
  }
  bump_version();
}

}  // namespace askel
