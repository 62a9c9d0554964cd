#pragma once
// Streaming per-tenant tail-latency tracker: the SLO controller's sensor.
//
// A service tenant's goal is a latency quantile ("p99 under 50 ms"), so the
// controller needs a constant-memory estimate of that quantile over an
// unbounded request stream. It runs the P² estimator (est/p2_quantile.hpp,
// Jain & Chlamtac) twice — once at the SLO quantile (default q = 0.99) and
// once at the median — plus exact counters for SLO attainment (the fraction
// of requests that met the target), which needs no estimation at all.
//
// Thread safety: record() is called from worker threads as requests
// complete; snapshot()/accessors from the controller's evaluation thread.
// One mutex guards it all — two P² updates are a few dozen flops, far below
// contention relevance at realistic request rates.

#include <mutex>

#include "est/p2_quantile.hpp"
#include "util/clock.hpp"

namespace askel {

/// One consistent read of the tracker, cheap to copy into a decision.
struct TailSnapshot {
  double tail = 0.0;    // latency-quantile estimate at the SLO quantile (s)
  double median = 0.0;  // streaming median estimate (s)
  long observations = 0;
  long met = 0;         // observations with latency <= target (target > 0)
};

class TailTracker {
 public:
  /// `quantile` in (0,1) (throws otherwise, via P2Quantile); `target` is
  /// the SLO latency used for the attainment counters (0 = no target: only
  /// the quantile estimates are maintained).
  explicit TailTracker(double quantile = 0.99, Duration target = 0.0);

  /// Fold in one completed request's latency (seconds).
  void record(Duration latency);

  TailSnapshot snapshot() const;
  double tail() const { return snapshot().tail; }
  double median() const { return snapshot().median; }
  long observations() const { return snapshot().observations; }
  /// Fraction of recorded requests with latency <= target. 1.0 before any
  /// observation (an idle tenant is not missing its SLO).
  double attainment() const;

  double quantile() const { return quantile_; }
  Duration target() const { return target_; }

  /// Forget everything (re-arm with a fresh goal).
  void reset();

 private:
  const double quantile_;
  const Duration target_;
  mutable std::mutex mu_;
  P2Quantile tail_est_;
  P2Quantile median_est_;
  long met_ = 0;
};

}  // namespace askel
