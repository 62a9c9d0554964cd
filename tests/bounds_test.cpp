// Tests for adg/bounds: remaining work, Graham-style bounds, and their
// sandwich relation around the greedy list schedule; and the heap-based list
// scheduler and concurrency profile against the quadratic scan and ordered
// map they replaced, kept here as references.

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <map>
#include <random>
#include <set>

#include "adg/bounds.hpp"
#include "adg/limited_lp.hpp"
#include "adg/timeline.hpp"
#include "workload/paper_example.hpp"

namespace askel {
namespace {

TEST(Bounds, RemainingWorkCountsPendingAndRunningTails) {
  AdgSnapshot g;
  g.now = 10.0;
  g.add(make_done(0, "d", 0.0, 8.0, {}));            // contributes nothing
  g.add(make_running(0, "r", 6.0, 10.0, {}));        // 6 seconds left (ends 16)
  g.add(make_running(0, "r2", 2.0, 3.0, {}));        // overdue: 0 left
  g.add(make_pending(0, "p", 4.0, {}));
  EXPECT_DOUBLE_EQ(remaining_work(g), 10.0);
}

TEST(Bounds, WorkBoundDividesByLp) {
  AdgSnapshot g;
  g.now = 0.0;
  for (int k = 0; k < 8; ++k) g.add(make_pending(0, "p", 1.0, {}));
  EXPECT_DOUBLE_EQ(work_bound(g, 1), 8.0);
  EXPECT_DOUBLE_EQ(work_bound(g, 4), 2.0);
  EXPECT_DOUBLE_EQ(work_bound(g, 100), 0.08);
}

TEST(Bounds, GrahamBoundIsMaxOfCriticalPathAndWork) {
  AdgSnapshot g;
  g.now = 0.0;
  int prev = g.add(make_pending(0, "a", 3.0, {}));
  g.add(make_pending(0, "b", 3.0, {prev}));
  for (int k = 0; k < 4; ++k) g.add(make_pending(0, "c", 1.0, {}));
  // CP = 6; W = 10. lp=1: work bound 10 dominates; lp=8: CP dominates.
  EXPECT_DOUBLE_EQ(graham_bound(g, 1), 10.0);
  EXPECT_DOUBLE_EQ(graham_bound(g, 8), 6.0);
}

TEST(Bounds, ExactOnThePaperExample) {
  PaperExampleReplay r;
  r.replay_until(70.0);
  const AdgSnapshot g = r.snapshot(70.0);
  // Lower bound never exceeds the list schedule; upper never undercuts it.
  const double list2 = limited_lp(g, 2).wct;
  EXPECT_LE(graham_bound(g, 2), list2);
  EXPECT_GE(graham_upper(g, 2), list2);
  // With ample LP both converge to the critical path (best effort = 100).
  EXPECT_DOUBLE_EQ(graham_bound(g, 24), 100.0);
}

class BoundsSandwich : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundsSandwich, GrahamSandwichesGreedyListScheduling) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> dur(0.1, 5.0);
  std::uniform_int_distribution<int> npreds(0, 3);
  AdgSnapshot g;
  g.now = 0.0;
  for (int k = 0; k < 24; ++k) {
    std::vector<int> preds;
    if (k > 0) {
      std::uniform_int_distribution<int> pick(0, k - 1);
      for (int j = npreds(rng); j > 0; --j) preds.push_back(pick(rng));
      std::sort(preds.begin(), preds.end());
      preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
    }
    g.add(make_pending(0, "x", dur(rng), std::move(preds)));
  }
  for (const int lp : {1, 2, 3, 5, 8}) {
    const double list = limited_lp(g, lp).wct;
    EXPECT_LE(graham_bound(g, lp), list + 1e-9) << "lp=" << lp;
    EXPECT_GE(graham_upper(g, lp) + 1e-9, list) << "lp=" << lp;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsSandwich,
                         ::testing::Values(3, 7, 11, 19, 23, 42, 77, 101));

// ------------------------------------------- scheduler equivalence --

/// Reference list schedule: rescan every pending activity for each
/// placement, O(n^2); earliest ready first, ties to the lowest id.
Schedule reference_limited_lp(const AdgSnapshot& g, int lp) {
  const std::size_t n = g.activities.size();
  Schedule s;
  s.entries.resize(n);
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
  std::sort(running_ends.begin(), running_ends.end());
  std::multiset<TimePoint> avail;
  const std::size_t reuse = std::min<std::size_t>(running_ends.size(), lp);
  for (std::size_t k = 0; k < reuse; ++k) avail.insert(running_ends[k]);
  for (int k = static_cast<int>(running_ends.size()); k < lp; ++k)
    avail.insert(g.now);
  std::vector<int> pending;
  for (const Activity& a : g.activities)
    if (a.state == ActivityState::kPending) pending.push_back(a.id);
  std::vector<char> placed(n, 0);
  for (std::size_t left = pending.size(); left > 0; --left) {
    int best = -1;
    TimePoint best_ready = 0.0;
    for (const int id : pending) {
      if (placed[id]) continue;
      bool ready = true;
      TimePoint ready_t = g.now;
      for (const int p : g.activities[id].preds) {
        if (!scheduled[p]) {
          ready = false;
          break;
        }
        ready_t = std::max(ready_t, s.entries[p].end);
      }
      if (ready && (best == -1 || ready_t < best_ready)) {
        best = id;
        best_ready = ready_t;
      }
    }
    assert(best != -1);
    const TimePoint worker_free = *avail.begin();
    avail.erase(avail.begin());
    const TimePoint start = std::max(best_ready, worker_free);
    const TimePoint end = start + g.activities[best].est_duration;
    avail.insert(end);
    s.entries[best] = {start, end};
    scheduled[best] = placed[best] = 1;
    s.wct = std::max(s.wct, end);
  }
  return s;
}

/// Reference profile: +1/-1 deltas summed per instant in an ordered map.
std::vector<Sample> reference_profile(const Schedule& s) {
  std::map<TimePoint, int> delta;
  for (const ScheduleEntry& e : s.entries) {
    if (e.end <= e.start) continue;
    delta[e.start] += 1;
    delta[e.end] -= 1;
  }
  std::vector<Sample> profile;
  int level = 0;
  for (const auto& [t, d] : delta) {
    if (d == 0) continue;
    level += d;
    profile.push_back(Sample{t, static_cast<double>(level)});
  }
  return profile;
}

/// Random DAG of `n` activities caught mid-run: each activity's times come
/// from an infinite-LP run from t=0, and `now` splits them into done,
/// running and pending. Running activities get fresh (sometimes overdue)
/// estimates. With `coarse`, durations come from {0, 0.5, ..., 2}, so ready
/// times and worker free times tie often.
AdgSnapshot random_mid_run(std::uint64_t seed, int n, bool coarse) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dur(0.1, 5.0);
  std::uniform_int_distribution<int> step(0, 4);
  std::uniform_int_distribution<int> npreds(0, 3);
  const auto draw = [&] { return coarse ? 0.5 * step(rng) : dur(rng); };
  std::vector<std::vector<int>> preds(n);
  std::vector<double> start(n), end(n), length(n);
  for (int k = 0; k < n; ++k) {
    if (k > 0) {
      std::uniform_int_distribution<int> pick(0, k - 1);
      for (int j = npreds(rng); j > 0; --j) preds[k].push_back(pick(rng));
      std::sort(preds[k].begin(), preds[k].end());
      preds[k].erase(std::unique(preds[k].begin(), preds[k].end()), preds[k].end());
    }
    start[k] = 0.0;
    for (const int p : preds[k]) start[k] = std::max(start[k], end[p]);
    length[k] = draw();
    end[k] = start[k] + length[k];
  }
  // Observe at the median start of the activities that take time: one of
  // them has just started, and a start after 0 means a predecessor is done.
  std::vector<double> starts;
  for (int k = 0; k < n; ++k)
    if (length[k] > 0.0) starts.push_back(start[k]);
  AdgSnapshot g;
  if (!starts.empty()) {
    std::nth_element(starts.begin(), starts.begin() + starts.size() / 2, starts.end());
    g.now = starts[starts.size() / 2];
  }
  for (int k = 0; k < n; ++k) {
    if (end[k] <= g.now) {
      g.add(make_done(0, "d", start[k], end[k], preds[k]));
    } else if (start[k] <= g.now) {
      g.add(make_running(0, "r", start[k], draw(), preds[k]));
    } else {
      g.add(make_pending(0, "p", length[k], preds[k]));
    }
  }
  return g;
}

void expect_same_schedule(const Schedule& got, const Schedule& want,
                          const std::string& where) {
  ASSERT_EQ(got.entries.size(), want.entries.size()) << where;
  for (std::size_t k = 0; k < got.entries.size(); ++k) {
    EXPECT_EQ(got.entries[k].start, want.entries[k].start) << where << " id=" << k;
    EXPECT_EQ(got.entries[k].end, want.entries[k].end) << where << " id=" << k;
  }
  EXPECT_EQ(got.wct, want.wct) << where;
}

class SchedulerEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerEquivalence, HeapScheduleAndProfileMatchTheReferences) {
  for (const int n : {1, 24, 128, 1024}) {
    for (const bool coarse : {false, true}) {
      const AdgSnapshot g = random_mid_run(GetParam() * 1000 + n, n, coarse);
      ASSERT_TRUE(g.validate().empty()) << g.validate();
      if (n == 1024) {  // a real mix: something done, running and pending
        EXPECT_GT(g.count(ActivityState::kDone), 0u);
        EXPECT_GT(g.count(ActivityState::kRunning), 0u);
        EXPECT_GT(g.count(ActivityState::kPending), 0u);
      }
      const Schedule be = best_effort(g);
      EXPECT_EQ(concurrency_profile(be), reference_profile(be));
      for (int lp = 1; lp <= 8; ++lp) {
        const std::string where = "n=" + std::to_string(n) +
                                  " coarse=" + std::to_string(coarse) +
                                  " lp=" + std::to_string(lp);
        const Schedule got = limited_lp(g, lp);
        expect_same_schedule(got, reference_limited_lp(g, lp), where);
        EXPECT_EQ(concurrency_profile(got), reference_profile(got)) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerEquivalence,
                         ::testing::Values(3, 7, 11, 19, 23, 42, 77, 101));

TEST(SchedulerEquivalence, PaperReplaySnapshotsMatchTheReferences) {
  PaperExampleReplay r;
  for (const double t : {0.0, 10.0, 30.0, 40.0, 65.0, 70.0, 90.0, 115.0}) {
    r.replay_until(t);
    const AdgSnapshot g = r.snapshot(t);
    const Schedule be = best_effort(g);
    EXPECT_EQ(concurrency_profile(be), reference_profile(be)) << "t=" << t;
    for (int lp = 1; lp <= 8; ++lp) {
      const Schedule got = limited_lp(g, lp);
      expect_same_schedule(got, reference_limited_lp(g, lp),
                           "t=" + std::to_string(t) + " lp=" + std::to_string(lp));
      EXPECT_EQ(concurrency_profile(got), reference_profile(got)) << "t=" << t;
    }
  }
}

}  // namespace
}  // namespace askel
