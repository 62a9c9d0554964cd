#pragma once
// The paper's history-based estimator (§4):
//
//   newEstimatedVal = ρ × lastActualVal + (1 − ρ) × previousEstimatedVal
//
// ρ ∈ [0,1]: 1 → only the last measurement counts; 0 → only the first value
// (or the initialization) counts; default 0.5 averages the last actual with
// the previous estimate.

#include <stdexcept>

namespace askel {

class Ewma {
 public:
  explicit Ewma(double rho = 0.5) : rho_(rho) {
    if (!(rho >= 0.0 && rho <= 1.0))  // NaN fails too
      throw std::invalid_argument("Ewma: rho must be in [0,1]");
  }

  /// Seed the estimate without consuming an observation (the paper's
  /// "initialization of t(m) and |m| functions", used in scenario 2).
  void init(double v) {
    value_ = v;
    has_value_ = true;
  }

  /// Fold in one actual measurement. The very first observation (when not
  /// initialized) becomes the estimate directly.
  void observe(double actual) {
    value_ = has_value_ ? rho_ * actual + (1.0 - rho_) * value_ : actual;
    has_value_ = true;
    ++observations_;
  }

  bool has_value() const { return has_value_; }
  double value() const { return value_; }
  double rho() const { return rho_; }
  /// Number of actual observations folded in (initialization not counted).
  long observations() const { return observations_; }

 private:
  double rho_;
  double value_ = 0.0;
  bool has_value_ = false;
  long observations_ = 0;
};

}  // namespace askel
