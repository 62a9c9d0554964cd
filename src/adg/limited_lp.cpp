#include "adg/limited_lp.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

namespace askel {

Schedule limited_lp(const AdgSnapshot& g, int lp) {
  if (lp < 1) throw std::invalid_argument("limited_lp: lp must be >= 1");
  const std::size_t n = g.activities.size();
  Schedule s;
  s.entries.resize(n);

  // Pass 1: fix done and running activities; collect running end times.
  std::vector<TimePoint> running_ends;
  std::vector<char> scheduled(n, 0);
  for (const Activity& a : g.activities) {
    if (a.state == ActivityState::kDone) {
      s.entries[a.id] = {a.start, a.end};
      scheduled[a.id] = 1;
      s.wct = std::max(s.wct, a.end);
    } else if (a.state == ActivityState::kRunning) {
      const TimePoint end = std::max(a.start + a.est_duration, g.now);
      s.entries[a.id] = {a.start, end};
      scheduled[a.id] = 1;
      running_ends.push_back(end);
      s.wct = std::max(s.wct, end);
    }
  }

  // Worker availability, as a min-heap of free times. Running activities
  // physically occupy threads; if more are running than `lp` (the controller
  // just shrank the pool), the surplus threads park when they finish, so
  // only the `lp` earliest-finishing slots rejoin the pool.
  std::sort(running_ends.begin(), running_ends.end());
  const std::size_t reuse = std::min<std::size_t>(running_ends.size(), lp);
  std::vector<TimePoint> free_at(running_ends.begin(), running_ends.begin() + reuse);
  free_at.resize(lp, g.now);
  std::priority_queue<TimePoint, std::vector<TimePoint>, std::greater<>> workers(
      std::greater<>{}, std::move(free_at));

  // Pass 2: greedy list scheduling of pending activities. Each one waits for
  // its pending predecessors (`missing`); the last one placed moves it onto
  // the ready heap, keyed by (ready time, id) — the earliest-ready, lowest-id
  // choice a scan of every pending activity would make, in O((V+E) log V).
  std::vector<int> missing(n, 0);
  std::vector<int> succ_begin(n + 1, 0);  // pending successors, CSR layout
  [[maybe_unused]] std::size_t left = 0;
  for (const Activity& a : g.activities) {
    if (a.state != ActivityState::kPending) continue;
    ++left;
    for (const int p : a.preds) {
      if (scheduled[p]) continue;
      ++missing[a.id];
      ++succ_begin[p + 1];
    }
  }
  std::partial_sum(succ_begin.begin(), succ_begin.end(), succ_begin.begin());
  std::vector<int> succ(succ_begin[n]);
  std::vector<int> fill = succ_begin;

  using Ready = std::pair<TimePoint, int>;
  std::priority_queue<Ready, std::vector<Ready>, std::greater<>> ready;
  const auto push_ready = [&](const Activity& a) {
    TimePoint t = g.now;
    for (const int p : a.preds) t = std::max(t, s.entries[p].end);
    ready.emplace(t, a.id);
  };
  for (const Activity& a : g.activities) {
    if (a.state != ActivityState::kPending) continue;
    for (const int p : a.preds)
      if (!scheduled[p]) succ[fill[p]++] = a.id;
    if (missing[a.id] == 0) push_ready(a);
  }

  for (; !ready.empty(); --left) {
    const auto [ready_t, id] = ready.top();
    ready.pop();
    const TimePoint worker_free = workers.top();
    workers.pop();
    const TimePoint start = std::max(ready_t, worker_free);
    const TimePoint end = start + g.activities[id].est_duration;
    workers.push(end);
    s.entries[id] = {start, end};
    s.wct = std::max(s.wct, end);
    for (int k = succ_begin[id]; k < succ_begin[id + 1]; ++k) {
      if (--missing[succ[k]] == 0) push_ready(g.activities[succ[k]]);
    }
  }
  // Topological snapshot order guarantees every pending activity is placed.
  assert(left == 0 && "cycle or dangling predecessor in snapshot");
  return s;
}

}  // namespace askel
