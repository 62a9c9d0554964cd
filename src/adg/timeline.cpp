#include "adg/timeline.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "adg/best_effort.hpp"

namespace askel {

std::vector<Sample> concurrency_profile(const Schedule& s) {
  // Sum +1/-1 deltas per time point; ends cancel starts at the same instant,
  // which also erases zero-duration activities. A stable sort keeps each
  // instant's first-recorded key, so equal times merge exactly as a map
  // keyed by time would merge them.
  std::vector<std::pair<TimePoint, int>> delta;
  delta.reserve(2 * s.entries.size());
  for (const ScheduleEntry& e : s.entries) {
    if (e.end <= e.start) continue;
    delta.emplace_back(e.start, 1);
    delta.emplace_back(e.end, -1);
  }
  std::stable_sort(delta.begin(), delta.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Sample> profile;
  int level = 0;
  for (std::size_t k = 0; k < delta.size();) {
    const TimePoint t = delta[k].first;
    int d = 0;
    for (; k < delta.size() && !(t < delta[k].first); ++k) d += delta[k].second;
    if (d == 0) continue;
    level += d;
    profile.push_back(Sample{t, static_cast<double>(level)});
  }
  return profile;
}

int peak_concurrency(const std::vector<Sample>& profile) {
  double peak = 0.0;
  for (const Sample& s : profile) peak = std::max(peak, s.value);
  return static_cast<int>(peak);
}

int optimal_lp(const AdgSnapshot& g) {
  return peak_concurrency(concurrency_profile(best_effort(g)));
}

}  // namespace askel
