#pragma once
// Streaming q-quantile: Jain & Chlamtac's P² algorithm ("The P² algorithm
// for dynamic calculation of quantiles and histograms without storing
// observations", CACM 28(10), 1985). TailTracker runs two of these, at the
// SLO quantile and at the median.
//
// Five markers (min, q/2, q, (1+q)/2, max quantile estimates) in O(1) memory
// and O(1) per observation. Until five samples exist the exact (sorted)
// quantile is returned. Marker heights stay ordered, so the estimate can
// never leave the observed [min, max] hull.
//
// Same contract as the paper's Ewma (est/ewma.hpp):
//  * init(v) seeds the estimate without counting an observation: one
//    uncounted pseudo-sample folded into the 5-sample bootstrap, where it
//    keeps a (diminishing) influence on the markers;
//  * observe(x) folds in one actual measurement;
//  * value() is only meaningful once has_value() (0.0 before);
//  * observations() counts real observations (init excluded).

#include <array>

namespace askel {

class P2Quantile {
 public:
  /// Throws std::invalid_argument unless q is in (0,1).
  explicit P2Quantile(double q);

  void init(double v) {
    // One uncounted pseudo-sample, same bootstrap path as a real one.
    ingest(v);
  }

  void observe(double actual) {
    ingest(actual);
    ++observations_;
  }

  bool has_value() const { return count_ > 0; }
  double value() const;
  long observations() const { return observations_; }

 private:
  void ingest(double x);
  double parabolic(int k, int sign) const;
  double linear(int k, int sign) const;

  double q_;
  std::array<double, 5> initial_{};  // bootstrap samples until count_ == 5
  double h_[5] = {};                 // marker heights
  int n_[5] = {};                    // actual marker positions (1-based)
  double np_[5] = {};                // desired marker positions
  double dn_[5] = {};                // desired-position increments
  int count_ = 0;
  long observations_ = 0;
};

}  // namespace askel
