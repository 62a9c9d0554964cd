#pragma once
// Per-muscle estimation state: t(m) for every muscle, |m| for Split and
// Condition muscles (paper §4: the cardinality of a Split is the size of the
// sub-problem set it returns; the cardinality of a Condition is the number of
// `true` results over a While run, or the recursion depth for d&C).
//
// Both statistics are the paper's EWMA at the registry's rho.

#include <optional>

#include "est/ewma.hpp"

namespace askel {

class MuscleStats {
 public:
  explicit MuscleStats(double rho = 0.5) : t_(rho), card_(rho) {}

  void observe_duration(double seconds) { t_.observe(seconds); }
  void observe_cardinality(double card) { card_.observe(card); }
  void init_duration(double seconds) { t_.init(seconds); }
  void init_cardinality(double card) { card_.init(card); }

  std::optional<double> t() const {
    return t_.has_value() ? std::optional<double>(t_.value()) : std::nullopt;
  }
  std::optional<double> cardinality() const {
    return card_.has_value() ? std::optional<double>(card_.value())
                             : std::nullopt;
  }

  long duration_observations() const { return t_.observations(); }
  long cardinality_observations() const { return card_.observations(); }

 private:
  Ewma t_;
  Ewma card_;
};

}  // namespace askel
