#include "adg/expand.hpp"

#include <algorithm>
#include <cmath>

namespace askel {
namespace {

class Expander {
 public:
  Expander(const Estimates& est, AdgSnapshot& g, const ExpandLimits& lim)
      : est_(est), g_(g), lim_(lim) {}

  // `depth` is the recursion guard; `ed` the estimation (dynamic nesting)
  // depth used for per-depth estimate lookups.
  std::vector<int> expand(const SkelNode& node, std::vector<int> preds, int depth,
                          int ed) {
    if (depth > lim_.max_depth || g_.size() >= lim_.max_activities) {
      g_.truncated = true;
      return preds;
    }
    switch (node.kind()) {
      case SkelKind::kSeq: {
        const auto& n = static_cast<const SeqNode&>(node);
        return {add_muscle(n.fe(), std::move(preds), ed)};
      }
      case SkelKind::kFarm: {
        const auto& n = static_cast<const FarmNode&>(node);
        return expand(*n.children()[0], std::move(preds), depth + 1, ed + 1);
      }
      case SkelKind::kPipe: {
        const auto& n = static_cast<const PipeNode&>(node);
        const auto kids = n.children();
        std::vector<int> mid = expand(*kids[0], std::move(preds), depth + 1, ed + 1);
        return expand(*kids[1], std::move(mid), depth + 1, ed + 1);
      }
      case SkelKind::kWhile: {
        const auto& n = static_cast<const WhileNode&>(node);
        // |fc| = expected number of `true` results; the condition itself runs
        // iters+1 times (the last one returns false).
        bool known = false;
        const long iters = rounded_cardinality(est_, n.fc().id(), 1, &known, ed);
        if (!known) g_.complete_estimates = false;
        std::vector<int> cur = std::move(preds);
        for (long k = 0; k < iters; ++k) {
          if (g_.size() >= lim_.max_activities) {
            g_.truncated = true;
            return cur;
          }
          cur = {add_muscle(n.fc(), std::move(cur), ed)};
          cur = expand(*n.children()[0], std::move(cur), depth + 1, ed + 1);
        }
        return {add_muscle(n.fc(), std::move(cur), ed)};
      }
      case SkelKind::kFor: {
        const auto& n = static_cast<const ForNode&>(node);
        std::vector<int> cur = std::move(preds);
        for (int k = 0; k < n.iterations(); ++k) {
          if (g_.size() >= lim_.max_activities) {
            g_.truncated = true;
            return cur;
          }
          cur = expand(*n.children()[0], std::move(cur), depth + 1, ed + 1);
        }
        return cur;
      }
      case SkelKind::kIf: {
        // The paper's v1.1b1 leaves If unsupported ("produces a duplication
        // of the whole ADG"). We track it conservatively by expanding the
        // true branch after the condition — documented deviation.
        const auto& n = static_cast<const IfNode&>(node);
        std::vector<int> c = {
            add_muscle(*static_cast<const ConditionMuscle*>(n.muscles()[0]),
                       std::move(preds), ed)};
        return expand(*n.true_branch(), std::move(c), depth + 1, ed + 1);
      }
      case SkelKind::kMap:
      case SkelKind::kFork: {
        const auto& n = static_cast<const FanOutNode&>(node);
        return fan_out(n, std::move(preds), ed, [&](std::size_t k, std::vector<int> p) {
          return expand(n.element(k), std::move(p), depth + 1, ed + 1);
        });
      }
      case SkelKind::kDaC: {
        const auto& n = static_cast<const DacNode&>(node);
        return expand_dac(n, std::move(preds), 0, estimated_depth(n, ed), depth, ed);
      }
    }
    return preds;  // unreachable
  }

  long estimated_depth(const DacNode& n, int ed) {
    bool depth_known = false;
    const long rec_depth =
        rounded_cardinality(est_, n.fc().id(), 0, &depth_known, ed);
    if (!depth_known) g_.complete_estimates = false;
    return rec_depth;
  }

  /// One level of an expected d&C tree: condition, then its body.
  std::vector<int> expand_dac(const DacNode& n, std::vector<int> preds, long level,
                              long rec_depth, int depth, int ed) {
    if (depth > lim_.max_depth || g_.size() >= lim_.max_activities) {
      g_.truncated = true;
      return preds;
    }
    const int cond_id = add_muscle(n.fc(), std::move(preds), ed);
    return dac_body(n, {cond_id}, level, rec_depth, level < rec_depth, depth, ed);
  }

  /// What follows a d&C condition: the leaf skeleton when not dividing, else
  /// split / |fs| recursive children one level deeper / merge.
  std::vector<int> dac_body(const DacNode& n, std::vector<int> preds, long level,
                            long rec_depth, bool divided, int depth, int ed) {
    if (depth > lim_.max_depth || g_.size() >= lim_.max_activities) {
      g_.truncated = true;
      return preds;
    }
    if (!divided) {
      return expand(*n.children()[0], std::move(preds), depth + 1, ed + 1);
    }
    return fan_out(n, std::move(preds), ed, [&](std::size_t, std::vector<int> p) {
      return expand_dac(n, std::move(p), level + 1, rec_depth, depth + 1, ed + 1);
    });
  }

  /// Split, `|fs|` expected elements (`element(k, preds)` expands element k),
  /// merge: map, fork and a dividing d&C level. Without a |fs| estimate the
  /// split is taken to yield one part per static child: 1 for map and d&C,
  /// the branch count for fork.
  template <class Element>
  std::vector<int> fan_out(const FanOutNode& n, std::vector<int> preds, int ed,
                           Element element) {
    bool known = false;
    const long card = rounded_cardinality(
        est_, n.fs().id(), static_cast<long>(n.children().size()), &known, ed);
    if (!known) g_.complete_estimates = false;
    const int split_id = add_muscle(n.fs(), std::move(preds), ed);
    std::vector<int> merge_preds;
    // Each element typically contributes one terminal; reserving the known
    // cardinality avoids O(log card) grow-and-copy cycles on large-ADG
    // expansion. Capped by the activity limit: the loop stops there anyway,
    // and an estimate gone wild must not allocate gigabytes up front.
    merge_preds.reserve(reserve_hint(card));
    for (long k = 0; k < card; ++k) {
      if (g_.size() >= lim_.max_activities) {
        g_.truncated = true;
        break;
      }
      std::vector<int> t = element(static_cast<std::size_t>(k), {split_id});
      merge_preds.insert(merge_preds.end(), t.begin(), t.end());
    }
    if (merge_preds.empty()) merge_preds = {split_id};
    return {add_muscle(n.fm(), std::move(merge_preds), ed)};
  }

 private:
  int add_muscle(const Muscle& m, std::vector<int> preds, int ed) {
    return add_pending_muscle(g_, est_, m, std::move(preds), ed);
  }

  std::size_t reserve_hint(long cardinality) const {
    // Clamp in size_t (max_activities may legitimately be SIZE_MAX, "no
    // cap") to the *remaining* activity budget — the merge loop truncates
    // there anyway — and to a sane constant so a wild cardinality estimate
    // never turns an optimization hint into a huge allocation.
    constexpr std::size_t kMaxHint = 1 << 16;
    const std::size_t want =
        cardinality > 0 ? static_cast<std::size_t>(cardinality) : 0;
    const std::size_t remaining =
        lim_.max_activities > g_.size() ? lim_.max_activities - g_.size() : 0;
    return std::min({want, remaining, kMaxHint});
  }

  const Estimates& est_;
  AdgSnapshot& g_;
  const ExpandLimits& lim_;
};

}  // namespace

long rounded_cardinality(const Estimates& est, int muscle_id, long fallback,
                         bool* known, int est_depth) {
  const auto c = est.cardinality(muscle_id, est_depth);
  if (known) *known = c.has_value();
  if (!c) return fallback;
  return std::max<long>(0, std::lround(*c));
}

std::vector<int> expand_expected(const SkelNode& node, const Estimates& est,
                                 AdgSnapshot& g, const std::vector<int>& preds,
                                 const ExpandLimits& lim, int est_depth) {
  Expander e(est, g, lim);
  return e.expand(node, preds, 0, est_depth);
}

std::vector<int> expand_expected_dac(const DacNode& node, const Estimates& est,
                                     AdgSnapshot& g, const std::vector<int>& preds,
                                     long level, const ExpandLimits& lim,
                                     int est_depth) {
  Expander e(est, g, lim);
  return e.expand_dac(node, preds, level, e.estimated_depth(node, est_depth), 0,
                      est_depth);
}

std::vector<int> expand_dac_body(const DacNode& node, const Estimates& est,
                                 AdgSnapshot& g, const std::vector<int>& preds,
                                 long level, bool divided, const ExpandLimits& lim,
                                 int est_depth) {
  Expander e(est, g, lim);
  return e.dac_body(node, preds, level, e.estimated_depth(node, est_depth), divided,
                    0, est_depth);
}

int add_pending_muscle(AdgSnapshot& g, const Estimates& est, const Muscle& m,
                       std::vector<int> preds, int est_depth) {
  const auto t = est.t(m.id(), est_depth);
  return g.add(make_pending(m.id(), m.name(), t.value_or(0.0), std::move(preds),
                            t.has_value()));
}

}  // namespace askel
