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

MuscleStats& EstimateRegistry::write(int muscle_id, int depth) {
  Fragment& fr = frags_[Estimates::fragment_of(muscle_id)];
  fr.dirty = true;
  ++version_;
  return fr.stats.try_emplace(estimate_key(muscle_id, depth), rho_).first->second;
}

const MuscleStats* EstimateRegistry::find(int muscle_id, int depth) const {
  const auto& stats = frags_[Estimates::fragment_of(muscle_id)].stats;
  const auto it = stats.find(estimate_key(muscle_id, depth));
  return it == stats.end() ? nullptr : &it->second;
}

void EstimateRegistry::observe_duration(int muscle_id, int depth, double seconds) {
  std::lock_guard lock(mu_);
  write(muscle_id, kAnyDepth).observe_duration(seconds);
  if (depth != kAnyDepth) write(muscle_id, depth).observe_duration(seconds);
}

void EstimateRegistry::observe_cardinality(int muscle_id, int depth, double card) {
  std::lock_guard lock(mu_);
  write(muscle_id, kAnyDepth).observe_cardinality(card);
  if (depth != kAnyDepth) write(muscle_id, depth).observe_cardinality(card);
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
  std::lock_guard lock(mu_);
  write(muscle_id, depth).init_duration(seconds);
}

void EstimateRegistry::init_cardinality(int muscle_id, int depth, double card) {
  std::lock_guard lock(mu_);
  write(muscle_id, depth).init_cardinality(card);
}

void EstimateRegistry::init_from(const Estimates& previous) {
  std::lock_guard lock(mu_);
  previous.for_each([&](std::int64_t key, const Estimates::Entry& entry) {
    MuscleStats& st = write(estimate_key_muscle(key), estimate_key_depth(key));
    if (entry.t) st.init_duration(*entry.t);
    if (entry.card) st.init_cardinality(*entry.card);
  });
}

std::optional<double> EstimateRegistry::t(int muscle_id) const {
  return t(muscle_id, kAnyDepth);
}

std::optional<double> EstimateRegistry::cardinality(int muscle_id) const {
  return cardinality(muscle_id, kAnyDepth);
}

std::optional<double> EstimateRegistry::t(int muscle_id, int depth) const {
  std::lock_guard lock(mu_);
  if (scope_ == EstimationScope::kPerDepth) {
    if (const MuscleStats* st = find(muscle_id, depth); st && st->t()) return st->t();
  }
  const MuscleStats* st = find(muscle_id, kAnyDepth);
  return st ? st->t() : std::nullopt;
}

std::optional<double> EstimateRegistry::cardinality(int muscle_id, int depth) const {
  std::lock_guard lock(mu_);
  if (scope_ == EstimationScope::kPerDepth) {
    if (const MuscleStats* st = find(muscle_id, depth); st && st->cardinality())
      return st->cardinality();
  }
  const MuscleStats* st = find(muscle_id, kAnyDepth);
  return st ? st->cardinality() : std::nullopt;
}

Estimates EstimateRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  if (snap_version_ == version_) return snap_;
  Estimates out;
  out.set_scope(scope_);
  for (std::size_t i = 0; i < kEstimateFragments; ++i) {
    Fragment& fr = frags_[i];
    if (fr.dirty) {
      auto built = std::make_shared<Estimates::Map>();
      built->reserve(fr.stats.size());
      for (const auto& [key, st] : fr.stats) {
        (*built)[key] = Estimates::Entry{st.t(), st.cardinality()};
      }
      fr.built = std::move(built);
      fr.dirty = false;
    }
    out.set_fragment(i, fr.built);  // clean fragments: one shared_ptr bump
  }
  snap_ = out;
  snap_version_ = version_;
  return out;
}

std::uint64_t EstimateRegistry::version() const {
  std::lock_guard lock(mu_);
  return version_;
}

void EstimateRegistry::clear() {
  std::lock_guard lock(mu_);
  for (Fragment& fr : frags_) {
    fr.stats.clear();
    fr.dirty = true;
  }
  ++version_;
}

}  // namespace askel
