#include "est/tail_tracker.hpp"

namespace askel {

TailTracker::TailTracker(double quantile, Duration target)
    : quantile_(quantile),
      target_(target),
      tail_est_(quantile),
      median_est_(0.5) {}

void TailTracker::record(Duration latency) {
  std::lock_guard lock(mu_);
  tail_est_.observe(latency);
  median_est_.observe(latency);
  if (target_ > 0.0 && latency <= target_) ++met_;
}

TailSnapshot TailTracker::snapshot() const {
  std::lock_guard lock(mu_);
  TailSnapshot s;
  s.observations = tail_est_.observations();
  s.met = met_;
  if (tail_est_.has_value()) s.tail = tail_est_.value();
  if (median_est_.has_value()) s.median = median_est_.value();
  return s;
}

double TailTracker::attainment() const {
  const TailSnapshot s = snapshot();
  if (s.observations == 0) return 1.0;
  return static_cast<double>(s.met) / static_cast<double>(s.observations);
}

void TailTracker::reset() {
  std::lock_guard lock(mu_);
  tail_est_ = P2Quantile(quantile_);
  median_est_ = P2Quantile(0.5);
  met_ = 0;
}

}  // namespace askel
