#pragma once
// Calibrated muscle timings reproducing the paper's §5 execution profile.
//
// Paper testbed facts, read off the paper's §5 (its wordcount runs and
// Figures 5–7): sequential WCT 12.5 s; outer split 6.4 s (single-threaded
// I/O); inner splits ≈ 7× faster; execute muscles ≈ 0.04 s; first merge
// observed at 7.6 s. We reproduce that profile at a configurable scale with
// sleep-calibrated muscles: sleeping workers park, so N concurrent muscles
// overlap on wall-clock time even on a single-core host — the
// duration/topology structure the autonomic layer reasons about is preserved
// exactly.

#include "util/clock.hpp"

namespace askel {

/// Block the calling thread for `seconds` (no-op for <= 0).
void simulate_work(Duration seconds);

struct PaperTimings {
  /// Paper-profile durations in seconds, before scaling.
  double outer_split = 6.4;
  double inner_split = 6.4 / 7.0;
  double execute = 0.04;
  double inner_merge = 0.04;
  double outer_merge = 0.10;
  /// Fan-outs: 5 chunks × 6 sub-chunks = 30 execute muscles.
  int outer_chunks = 5;
  int inner_chunks = 6;
  /// Global time scale (1.0 = the paper's 12.5 s sequential profile).
  double scale = 0.15;

  double scaled_outer_split() const { return outer_split * scale; }
  double scaled_inner_split() const { return inner_split * scale; }
  double scaled_execute() const { return execute * scale; }
  double scaled_inner_merge() const { return inner_merge * scale; }
  double scaled_outer_merge() const { return outer_merge * scale; }

  /// Sequential WCT of the whole profile (scaled).
  double sequential_wct() const;
};

}  // namespace askel
