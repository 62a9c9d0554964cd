// Tests for sm/: per-skeleton state machines (paper Figures 3 and 4), the
// tracker set, and the full virtual-time replay of the paper's §4 example.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>

#include "adg/best_effort.hpp"
#include "adg/limited_lp.hpp"
#include "adg/timeline.hpp"
#include "autonomic/controller.hpp"
#include "autonomic/decision.hpp"
#include "events/listener.hpp"
#include "workload/paper_example.hpp"
#include "workload/wordcount.hpp"

namespace askel {
namespace {

// Helper to synthesize events against real nodes.
Event ev(const SkelNode* node, std::int64_t exec, std::int64_t parent, When when,
         Where where, int muscle, double t, int card = -1, bool cond = false) {
  Event e;
  e.when = when;
  e.where = where;
  e.exec_id = exec;
  e.parent_exec_id = parent;
  e.node = node;
  e.muscle_id = muscle;
  e.timestamp = t;
  e.cardinality = card;
  e.condition_result = cond;
  return e;
}

TEST(SeqSm, Figure3UpdatesDurationEstimate) {
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto skel = Seq(fe);
  const SkelNode* n = skel.node().get();
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);

  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kExecute, fe.m->id(), 10.0));
  EXPECT_FALSE(reg.t(fe.m->id()).has_value());
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kExecute, fe.m->id(), 14.0));
  EXPECT_DOUBLE_EQ(*reg.t(fe.m->id()), 4.0);
  EXPECT_TRUE(ts.root_finished());

  // Second instance blends with the EWMA: 0.5*8 + 0.5*4 = 6.
  ts.on_event(ev(n, 2, -1, When::kBefore, Where::kExecute, fe.m->id(), 20.0));
  ts.on_event(ev(n, 2, -1, When::kAfter, Where::kExecute, fe.m->id(), 28.0));
  EXPECT_DOUBLE_EQ(*reg.t(fe.m->id()), 6.0);
}

TEST(SeqSm, IndexGuardKeepsInstancesSeparate) {
  // Two interleaved seq instances (the [idx == i] guard of Figure 3): the
  // after of instance B must not close instance A's record.
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto skel = Seq(fe);
  const SkelNode* n = skel.node().get();
  EstimateRegistry reg(1.0);
  TrackerSet ts(reg);
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kExecute, fe.m->id(), 0.0));
  ts.on_event(ev(n, 2, -1, When::kBefore, Where::kExecute, fe.m->id(), 5.0));
  ts.on_event(ev(n, 2, -1, When::kAfter, Where::kExecute, fe.m->id(), 6.0));
  EXPECT_DOUBLE_EQ(*reg.t(fe.m->id()), 1.0);  // only instance 2 closed
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kExecute, fe.m->id(), 10.0));
  EXPECT_DOUBLE_EQ(*reg.t(fe.m->id()), 10.0);
}

TEST(MapSm, Figure4UpdatesSplitCardinalityAndMergeEstimates) {
  auto fs = split_muscle<int, int>("fs", [](int) { return std::vector<int>{}; });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int>) { return 0; });
  auto skel = Map(fs, Seq(fe), fm);
  const SkelNode* n = skel.node().get();
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);

  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSkeleton, -1, 0.0));
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSplit, fs.m->id(), 0.0));
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kSplit, fs.m->id(), 10.0, 3));
  EXPECT_DOUBLE_EQ(*reg.t(fs.m->id()), 10.0);
  EXPECT_DOUBLE_EQ(*reg.cardinality(fs.m->id()), 3.0);
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kMerge, fm.m->id(), 60.0));
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kMerge, fm.m->id(), 65.0));
  EXPECT_DOUBLE_EQ(*reg.t(fm.m->id()), 5.0);
  EXPECT_FALSE(ts.root_finished());
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kSkeleton, -1, 65.0));
  EXPECT_TRUE(ts.root_finished());
}

TEST(WhileSm, CountsTrueResultsAsCardinality) {
  auto fc = condition_muscle<int>("fc", [](const int&) { return false; });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto skel = While(fc, Seq(fe));
  const SkelNode* n = skel.node().get();
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);

  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSkeleton, -1, 0.0));
  double t = 0.0;
  for (const bool result : {true, true, true, false}) {
    ts.on_event(ev(n, 1, -1, When::kBefore, Where::kCondition, fc.m->id(), t));
    ts.on_event(
        ev(n, 1, -1, When::kAfter, Where::kCondition, fc.m->id(), t + 1, -1, result));
    t += 10;
  }
  EXPECT_DOUBLE_EQ(*reg.cardinality(fc.m->id()), 3.0);
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kSkeleton, -1, t));
  EXPECT_TRUE(ts.root_finished());
}

TEST(DacSm, RootObservesDivideDepth) {
  auto fc = condition_muscle<int>("fc", [](const int&) { return false; });
  auto fs = split_muscle<int, int>("fs", [](int) { return std::vector<int>{}; });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int>) { return 0; });
  auto skel = DaC(fc, fs, Seq(fe), fm);
  const SkelNode* n = skel.node().get();
  const SkelNode* leaf = n->children()[0];
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);

  // Root (exec 1) divides into two leaves (exec 2, 3): depth 1.
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSkeleton, -1, 0));
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kCondition, fc.m->id(), 0));
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kCondition, fc.m->id(), 1, -1, true));
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSplit, fs.m->id(), 1));
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kSplit, fs.m->id(), 2, 2));
  for (std::int64_t child = 2; child <= 3; ++child) {
    ts.on_event(ev(n, child, 1, When::kBefore, Where::kSkeleton, -1, 2));
    ts.on_event(ev(n, child, 1, When::kBefore, Where::kCondition, fc.m->id(), 2));
    ts.on_event(
        ev(n, child, 1, When::kAfter, Where::kCondition, fc.m->id(), 3, -1, false));
    const std::int64_t seq_exec = 10 + child;
    ts.on_event(ev(leaf, seq_exec, child, When::kBefore, Where::kExecute,
                   fe.m->id(), 3));
    ts.on_event(ev(leaf, seq_exec, child, When::kAfter, Where::kExecute,
                   fe.m->id(), 4));
    ts.on_event(ev(n, child, 1, When::kAfter, Where::kSkeleton, -1, 4));
  }
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kMerge, fm.m->id(), 5));
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kMerge, fm.m->id(), 6));
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kSkeleton, -1, 6));
  EXPECT_DOUBLE_EQ(*reg.cardinality(fc.m->id()), 1.0);  // one divide level
  EXPECT_TRUE(ts.root_finished());
}

TEST(ForkSm, TracksSplitAndMergeLikeMap) {
  auto fs = split_muscle<int, int>("fs", [](int) { return std::vector<int>{}; });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fe2 = execute_muscle<int, int>("fe2", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int>) { return 0; });
  auto skel = Fork(fs, {Seq(fe), Seq(fe2)}, fm);
  const SkelNode* n = skel.node().get();
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);

  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSkeleton, -1, 0.0));
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSplit, fs.m->id(), 0.0));
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kSplit, fs.m->id(), 4.0, 4));
  EXPECT_DOUBLE_EQ(*reg.cardinality(fs.m->id()), 4.0);
  // Snapshot with no started children: 4 expected elements cycling over the
  // two branches (fe, fe2, fe, fe2) plus the pending merge.
  reg.init_duration(fe.m->id(), 1.0);
  reg.init_duration(fe2.m->id(), 2.0);
  reg.init_duration(fm.m->id(), 0.5);
  const AdgSnapshot g = ts.snapshot(4.0);
  ASSERT_TRUE(g.validate().empty()) << g.validate();
  EXPECT_EQ(g.size(), 6u);  // split + 4 elements + merge
  EXPECT_TRUE(g.complete_estimates);
  int fe_count = 0, fe2_count = 0;
  for (const Activity& a : g.activities) {
    fe_count += a.muscle_id == fe.m->id();
    fe2_count += a.muscle_id == fe2.m->id();
  }
  EXPECT_EQ(fe_count, 2);
  EXPECT_EQ(fe2_count, 2);
}

TEST(ForSm, RemainingIterationsAreExpanded) {
  auto feM = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto body = Seq(feM);
  auto skel = For(3, body);
  const SkelNode* n = skel.node().get();
  const SkelNode* seq = n->children()[0];
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);

  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSkeleton, -1, 0.0));
  // First body instance completes: 0..2.
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kNested, -1, 0.0));
  ts.on_event(ev(seq, 2, 1, When::kBefore, Where::kExecute, feM.m->id(), 0.0));
  ts.on_event(ev(seq, 2, 1, When::kAfter, Where::kExecute, feM.m->id(), 2.0));
  const AdgSnapshot g = ts.snapshot(2.0);
  // One done body + 2 expected bodies, chained.
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.count(ActivityState::kDone), 1u);
  EXPECT_EQ(g.count(ActivityState::kPending), 2u);
  EXPECT_EQ(g.activities[1].preds, std::vector<int>{0});
  EXPECT_EQ(g.activities[2].preds, std::vector<int>{1});
}

TEST(PipeSm, SecondStageExpandsWhileFirstRuns) {
  auto f1 = execute_muscle<int, int>("f1", [](int x) { return x; });
  auto f2 = execute_muscle<int, int>("f2", [](int x) { return x; });
  auto skel = Pipe(Seq(f1), Seq(f2));
  const SkelNode* n = skel.node().get();
  const SkelNode* s1 = n->children()[0];
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);
  reg.init_duration(f1.m->id(), 3.0);
  reg.init_duration(f2.m->id(), 4.0);

  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSkeleton, -1, 0.0));
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kNested, -1, 0.0));
  ts.on_event(ev(s1, 2, 1, When::kBefore, Where::kExecute, f1.m->id(), 1.0));
  const AdgSnapshot g = ts.snapshot(2.0);
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g.activities[0].state, ActivityState::kRunning);
  EXPECT_EQ(g.activities[1].state, ActivityState::kPending);
  EXPECT_DOUBLE_EQ(g.activities[1].est_duration, 4.0);
  EXPECT_EQ(g.activities[1].preds, std::vector<int>{0});
}

TEST(FarmSm, UnstartedChildIsExpanded) {
  auto feM = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto skel = Farm(Seq(feM));
  const SkelNode* n = skel.node().get();
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);
  reg.init_duration(feM.m->id(), 2.5);
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSkeleton, -1, 0.0));
  const AdgSnapshot g = ts.snapshot(0.0);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.activities[0].state, ActivityState::kPending);
  EXPECT_DOUBLE_EQ(g.activities[0].est_duration, 2.5);
}

TEST(TrackerSet, DepthPropagatesThroughTheDynamicTree) {
  auto fs = split_muscle<int, int>("fs", [](int) { return std::vector<int>{}; });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int>) { return 0; });
  auto inner = Map(fs, Seq(fe), fm);
  auto outer = Map(fs, inner, fm);
  const SkelNode* o = outer.node().get();
  const SkelNode* i = o->children()[0];
  const SkelNode* s = i->children()[0];
  EstimateRegistry reg(0.5, EstimationScope::kPerDepth);
  TrackerSet ts(reg);
  ts.on_event(ev(o, 1, -1, When::kBefore, Where::kSkeleton, -1, 0.0));
  ts.on_event(ev(i, 2, 1, When::kBefore, Where::kSkeleton, -1, 0.0));
  ts.on_event(ev(s, 3, 2, When::kBefore, Where::kExecute, fe.m->id(), 0.0));
  ts.on_event(ev(s, 3, 2, When::kAfter, Where::kExecute, fe.m->id(), 1.0));
  // The seq sits at depth 2; its observation lands on (fe, depth 2).
  EXPECT_TRUE(reg.t(fe.m->id(), 2).has_value());
  EXPECT_DOUBLE_EQ(*reg.t(fe.m->id(), 2), 1.0);
}

TEST(TrackerSet, IgnoresEventsWithoutInstanceOrNode) {
  EstimateRegistry reg;
  TrackerSet ts(reg);
  Event e;  // exec_id -1, node nullptr
  ts.on_event(e);
  EXPECT_EQ(ts.tracked_instances(), 0u);
  EXPECT_EQ(ts.current_root(), nullptr);
  EXPECT_FALSE(ts.root_finished());
}

TEST(TrackerSet, EmptySnapshotBeforeAnyEvent) {
  EstimateRegistry reg;
  TrackerSet ts(reg);
  const AdgSnapshot g = ts.snapshot(0.0);
  EXPECT_EQ(g.size(), 0u);
}

TEST(TrackerSet, SnapshotNeverHoldsAnActivityEndingAfterItsNow) {
  // The controller reads its clock, then snapshots; a worker may ingest an
  // After event stamped in between. The graph must stay valid anyway.
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto skel = Seq(fe);
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);
  const TimePoint now = 12.0;
  ts.on_event(ev(skel.node().get(), 1, -1, When::kBefore, Where::kExecute,
                 fe.m->id(), 10.0));
  ts.on_event(ev(skel.node().get(), 1, -1, When::kAfter, Where::kExecute,
                 fe.m->id(), 14.0));
  const AdgSnapshot g = ts.snapshot(now);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_TRUE(g.validate().empty()) << g.validate();
}

// ---------------------------------------------------------------------------
// The monitor's output, pinned: nested skeletons covering all nine kinds run
// on one worker against a clock only their muscles advance, and every
// snapshot taken after every event is folded into one FNV-1a hash. Exec ids
// and muscle ids are process-wide counters, so they stay out of the hash.
// ---------------------------------------------------------------------------

class Fnv1a {
 public:
  template <class T>
  void add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }
  void add(const std::string& s) {
    add(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void hash_snapshot(Fnv1a& h, const AdgSnapshot& g) {
  h.add(g.now);
  h.add(g.complete_estimates);
  h.add(g.truncated);
  h.add(g.size());
  for (const Activity& a : g.activities) {
    h.add(a.label);
    h.add(a.state);
    h.add(a.start);
    h.add(a.end);
    h.add(a.est_duration);
    h.add(a.has_estimate);
    h.add(a.preds.size());
    for (const int p : a.preds) h.add(p);
  }
}

TEST(TrackerSet, SnapshotStreamOfNestedSkeletonsIsPinned) {
  ManualClock clock(0.0);
  auto fe = execute_muscle<int, int>("fe", [&](int x) {
    clock.advance(1.0 + 0.5 * (x % 3));
    return x + 1;
  });
  auto inc = execute_muscle<int, int>("inc", [&](int x) {
    clock.advance(0.25);
    return x + 1;
  });
  auto dbl = execute_muscle<int, int>("dbl", [&](int x) {
    clock.advance(0.75);
    return 2 * x;
  });
  // Two or three parts summing to x.
  auto fs = split_muscle<int, int>("fs", [&](int x) {
    clock.advance(0.5);
    const int n = 2 + x % 2;
    std::vector<int> parts;
    for (int i = 0; i < n; ++i) parts.push_back((x + i) / n);
    return parts;
  });
  auto fm = merge_muscle<int, int>("fm", [&](std::vector<int> v) {
    clock.advance(0.25 * static_cast<double>(v.size()));
    int sum = 0;
    for (const int x : v) sum += x;
    return sum;
  });
  auto halve = split_muscle<int, int>("halve", [&](int x) {
    clock.advance(0.5);
    return std::vector<int>{x / 2, x - x / 2};
  });
  auto cond = [&](const char* name, auto pred) {
    return condition_muscle<int>(name, [&clock, pred](const int& x) {
      clock.advance(0.125);
      return pred(x);
    });
  };
  auto big = cond("big", [](int x) { return x > 3; });
  auto gt1 = cond("gt1", [](int x) { return x > 1; });
  auto even = cond("even", [](int x) { return x % 2 == 0; });
  auto lt12 = cond("lt12", [](int x) { return x < 12; });
  // A loop count that is not a function of the value: T F T F T T F F T ...
  int turn = 0;
  auto turns = cond("turns", [&turn](int) {
    const int k = turn++;
    return k % 4 != 3 && k % 5 != 1;
  });

  const std::vector<std::pair<const char*, Skel<int, int>>> skeletons = {
      {"map of map", Map(fs, Map(fs, Seq(fe), fm), fm)},
      {"fork with a pipe branch", Fork(fs, {Seq(fe), Pipe(Seq(inc), Seq(dbl))}, fm)},
      {"d&C with a fork leaf", DaC(big, halve, Fork(fs, {Seq(fe), Seq(inc)}, fm), fm)},
      {"d&C of d&C", DaC(big, halve, DaC(gt1, halve, Seq(fe), fm), fm)},
      {"map of d&C", Map(fs, DaC(big, halve, Seq(fe), fm), fm)},
      {"for of while", For(3, While(turns, Seq(inc)))},
      {"while of map", While(lt12, Map(fs, Seq(inc), fm))},
      {"pipe of farm and if", Pipe(Farm(Seq(fe)), If(even, Seq(inc), Seq(dbl)))},
      {"for of if", For(4, If(even, Seq(inc), Seq(dbl)))},
  };

  ResizableThreadPool pool(1, 1);
  Fnv1a h;
  long snapshots = 0;
  for (const EstimationScope scope :
       {EstimationScope::kAggregate, EstimationScope::kPerDepth}) {
    for (const auto& [name, skel] : skeletons) {
      SCOPED_TRACE(name);
      EstimateRegistry reg(0.5, scope);
      TrackerSet ts(reg);
      EventBus bus;
      bus.add_listener(ts.as_listener());
      bus.add_listener(std::make_shared<ObserverListener>([&](const Event&) {
        hash_snapshot(h, ts.snapshot(clock.now()));
        ++snapshots;
      }));
      Engine engine(pool, bus, &clock);
      for (const int input : {5, 8, 3}) skel.input(input, engine).get();
      EXPECT_TRUE(ts.root_finished());
    }
  }
  EXPECT_GT(snapshots, 1000);
  EXPECT_EQ(h.value(), 0x0f4301fa21dcaaa0ULL) << std::hex << "0x" << h.value();
}

TEST(TrackerSet, ResetForgetsTrackersButKeepsEstimates) {
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto skel = Seq(fe);
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);
  ts.on_event(ev(skel.node().get(), 1, -1, When::kBefore, Where::kExecute,
                 fe.m->id(), 0.0));
  ts.on_event(ev(skel.node().get(), 1, -1, When::kAfter, Where::kExecute,
                 fe.m->id(), 2.0));
  ts.reset();
  EXPECT_EQ(ts.tracked_instances(), 0u);
  EXPECT_DOUBLE_EQ(*reg.t(fe.m->id()), 2.0);
}

// ---------------------------------------------------------------------------
// Full replay of the paper's §4 example (Figures 1 and 2).
// ---------------------------------------------------------------------------

TEST(PaperReplay, EstimatesMatchThePaperValuesAt70) {
  PaperExampleReplay r;
  r.replay_until(70.0);
  EXPECT_DOUBLE_EQ(*r.registry().t(r.skel().fs_id), 10.0);
  EXPECT_DOUBLE_EQ(*r.registry().t(r.skel().fe_id), 15.0);
  EXPECT_DOUBLE_EQ(*r.registry().t(r.skel().fm_id), 5.0);
  EXPECT_DOUBLE_EQ(*r.registry().cardinality(r.skel().fs_id), 3.0);
}

TEST(PaperReplay, SnapshotAt70HasTheFigure1Shape) {
  PaperExampleReplay r;
  r.replay_until(70.0);
  const AdgSnapshot g = r.snapshot(70.0);
  ASSERT_TRUE(g.validate().empty()) << g.validate();
  EXPECT_TRUE(g.complete_estimates);
  // Done: outer split, 2 inner splits, 6 fe, merge1 = 10.
  EXPECT_EQ(g.count(ActivityState::kDone), 10u);
  // Running: merge2 (started at 70) and split3 (started at 65).
  EXPECT_EQ(g.count(ActivityState::kRunning), 2u);
  // Pending: 3 expected fe, merge3, outer merge.
  EXPECT_EQ(g.count(ActivityState::kPending), 5u);
}

TEST(PaperReplay, SchedulesReproduceFigure1And2Numbers) {
  PaperExampleReplay r;
  r.replay_until(70.0);
  const AdgSnapshot g = r.snapshot(70.0);
  EXPECT_DOUBLE_EQ(best_effort(g).wct, 100.0);
  EXPECT_DOUBLE_EQ(limited_lp(g, 2).wct, 115.0);
  EXPECT_EQ(optimal_lp(g), 3);
}

TEST(PaperReplay, DecisionRaisesLpTo3ForGoal100) {
  // The paper's closing sentence of §4.
  PaperExampleReplay r;
  r.replay_until(70.0);
  const AdgSnapshot g = r.snapshot(70.0);
  const Decision d = decide(g, /*goal_abs=*/100.0, /*current_lp=*/2, /*max_lp=*/24);
  EXPECT_EQ(d.new_lp, 3);
  EXPECT_EQ(d.reason, DecisionReason::kIncreaseToGoal);
  EXPECT_DOUBLE_EQ(d.best_effort_wct, 100.0);
  EXPECT_DOUBLE_EQ(d.current_lp_wct, 115.0);
  EXPECT_EQ(d.optimal_lp, 3);
}

TEST(PaperReplay, EarlySnapshotIsIncompleteUntilFirstMergeRuns) {
  // "the system has to wait until all muscles have been executed at least
  //  once" — before the first merge, t(fm) is unknown.
  PaperExampleReplay r;
  r.replay_until(30.0);
  const AdgSnapshot g = r.snapshot(30.0);
  EXPECT_FALSE(g.complete_estimates);
}

TEST(PaperReplay, SnapshotBecomesCompleteExactlyAtFirstMerge) {
  PaperExampleReplay r;
  r.replay_until(69.0);
  EXPECT_FALSE(r.snapshot(69.0).complete_estimates);  // merge1 still running
  r.replay_until(70.0);
  EXPECT_TRUE(r.snapshot(70.0).complete_estimates);
}

TEST(PaperReplay, FullReplayFinishesWithAllDoneAtWct115) {
  PaperExampleReplay r;
  r.replay_until(PaperExampleReplay::kTotalWct);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.trackers().root_finished());
  const AdgSnapshot g = r.snapshot(115.0);
  EXPECT_EQ(g.count(ActivityState::kDone), g.size());
  EXPECT_DOUBLE_EQ(best_effort(g).wct, 115.0);
  EXPECT_DOUBLE_EQ(limited_lp(g, 1).wct, 115.0);  // all past: LP irrelevant
  // 1 outer split + 3×(split + 3 fe + merge) + outer merge = 17 activities.
  EXPECT_EQ(g.size(), 17u);
}

TEST(PaperReplay, MidRunSnapshotAt40HasConsistentSchedules) {
  PaperExampleReplay r;
  r.replay_until(40.0);
  const AdgSnapshot g = r.snapshot(40.0);
  ASSERT_TRUE(g.validate().empty()) << g.validate();
  // Limited-LP(k) is never better than best effort.
  const double be = best_effort(g).wct;
  for (int k = 1; k <= 4; ++k) EXPECT_GE(limited_lp(g, k).wct, be - 1e-9);
}

TEST(PaperReplay, ControllerClosesTheLoopDeterministically) {
  // Full MAPE loop on virtual time: replay the paper's event stream into a
  // TrackerSet + AutonomicController against a ManualClock and a real pool
  // (whose LP the controller sets). With the WCT goal of 100, the first
  // actionable evaluation — at the first merge, t=70 — must raise LP 2 → 3,
  // the paper's §4 closing statement.
  PaperExampleReplay r;
  ManualClock clock(0.0);
  ResizableThreadPool pool(2, 24, &clock);
  AutonomicController controller(pool, r.trackers(), &clock, ControllerConfig{});
  controller.arm(/*goal=*/100.0);

  // Drive replay and controller together; the controller sees the same
  // After-muscle cadence the bus would deliver.
  for (const double t : {10.0, 20.0, 35.0, 50.0, 65.0, 69.0}) {
    clock.set(t);
    r.replay_until(t);
    const Decision d = controller.evaluate_now();
    // Estimates incomplete until the first merge: no action possible.
    EXPECT_EQ(d.reason, DecisionReason::kIncompleteEstimates) << "t=" << t;
    EXPECT_EQ(pool.target_lp(), 2);
  }
  clock.set(70.0);
  r.replay_until(70.0);
  const Decision d = controller.evaluate_now();
  EXPECT_EQ(d.reason, DecisionReason::kIncreaseToGoal);
  EXPECT_EQ(d.new_lp, 3);
  EXPECT_EQ(pool.target_lp(), 3);
  ASSERT_EQ(controller.actions().size(), 1u);
  EXPECT_EQ(controller.actions()[0].from_lp, 2);
  EXPECT_EQ(controller.actions()[0].to_lp, 3);
}

TEST(PaperReplay, InitializedRegistryMakesEarlySnapshotsComplete) {
  // Scenario-2 mechanics: estimates from a previous run remove the warm-up.
  // Each replay builds a fresh skeleton (fresh muscle ids), so the transfer
  // goes through name-keyed estimates — exactly what a user restarting the
  // application would persist.
  PaperExampleReplay first;
  first.replay_until(115.0);
  const NamedEstimates exported =
      export_named_estimates(first.registry(), *first.skel().outer);

  PaperExampleReplay second;
  init_named_estimates(second.registry(), *second.skel().outer, exported);
  second.replay_until(10.0);  // only the outer split has finished
  const AdgSnapshot g = second.snapshot(10.0);
  EXPECT_TRUE(g.complete_estimates);
  // With everything known up front the best-effort estimate of the whole run
  // from t=10 is 10 + 10 + 15·(critical path 3 sequential fe) + 5 + 5 = wait —
  // structure: inner split 10, fe 15 (parallel ∞), merge 5, outer merge 5.
  EXPECT_DOUBLE_EQ(best_effort(g).wct, 45.0);
}

// ---------------------------------------------------------------------------
// The cost bound: on a clock that advances one step per reading, every
// evaluation costs one step, so after an evaluation the next
// kCostSpacing - 1 triggering events are skipped and the one after evaluates.
// ---------------------------------------------------------------------------

class StepClock final : public Clock {
 public:
  explicit StepClock(Duration step) : step_(step) {}
  TimePoint now() const override { return t_.fetch_add(step_) + step_; }

 private:
  const Duration step_;
  mutable std::atomic<double> t_{0.0};
};

constexpr int kSkippedPerEvaluation =
    static_cast<int>(AutonomicController::kCostSpacing) - 1;

Event after_execute() {
  return ev(nullptr, -1, -1, When::kAfter, Where::kExecute, 0, 0.0);
}

TEST(CostBound, EventsWithinSpacingTimesTheLastCostAreSkipped) {
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto skel = Seq(fe);
  EstimateRegistry reg(0.5);
  reg.init_duration(fe.m->id(), 1.0);
  TrackerSet ts(reg);
  ts.on_event(ev(skel.node().get(), 1, -1, When::kBefore, Where::kExecute,
                 fe.m->id(), 0.0));  // complete from the start: no warm-up
  ResizableThreadPool pool(1, 4);
  StepClock clock(1.0);
  AutonomicController ctl(pool, ts, &clock);
  ASSERT_TRUE(ctl.arm(/*goal=*/1e9));

  ctl.on_event(after_execute());  // the first evaluation is never skipped
  ASSERT_EQ(ctl.evaluations(), 1);
  for (long round = 1; round <= 3; ++round) {
    for (int k = 0; k < kSkippedPerEvaluation; ++k) ctl.on_event(after_execute());
    EXPECT_EQ(ctl.evaluations(), round) << "skipped events must not evaluate";
    ctl.on_event(after_execute());
    EXPECT_EQ(ctl.evaluations(), round + 1);
  }
  // evaluate_now() ignores the bound.
  ctl.evaluate_now();
  ctl.evaluate_now();
  EXPECT_EQ(ctl.evaluations(), 6);
}

TEST(CostBound, WarmingEvaluationsIgnoreMinIntervalButNotTheCostBound) {
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto skel = Seq(fe);
  EstimateRegistry reg(0.5);  // t(fe) unknown: every evaluation warms up
  TrackerSet ts(reg);
  ts.on_event(ev(skel.node().get(), 1, -1, When::kBefore, Where::kExecute,
                 fe.m->id(), 0.0));
  ResizableThreadPool pool(1, 4);
  StepClock clock(1.0);
  ControllerConfig cfg;
  cfg.min_interval = 1e9;  // never passes once estimates are complete
  AutonomicController ctl(pool, ts, &clock, cfg);
  ASSERT_TRUE(ctl.arm(/*goal=*/1e9));

  ctl.on_event(after_execute());
  ASSERT_EQ(ctl.evaluations(), 1);
  for (long round = 1; round <= 3; ++round) {
    for (int k = 0; k < kSkippedPerEvaluation; ++k) ctl.on_event(after_execute());
    EXPECT_EQ(ctl.evaluations(), round) << "skipped events must not evaluate";
    ctl.on_event(after_execute());
    EXPECT_EQ(ctl.evaluations(), round + 1) << "min_interval held back a warm-up";
  }
}

TEST(CostBound, RecordLatencyFollowsTheSameRule) {
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);
  ResizableThreadPool pool(1, 4);
  StepClock clock(1.0);
  ControllerConfig cfg;
  cfg.slo.min_observations = 4;
  AutonomicController ctl(pool, ts, &clock, cfg);
  ASSERT_TRUE(ctl.arm_slo(/*tail_goal=*/1.0));
  // Warming up (fewer than min_observations) in round 1, planning after.
  ctl.record_latency(0.1);
  ASSERT_EQ(ctl.evaluations(), 1);
  for (long round = 1; round <= 3; ++round) {
    for (int k = 0; k < kSkippedPerEvaluation; ++k) ctl.record_latency(0.1);
    EXPECT_EQ(ctl.evaluations(), round);
    ctl.record_latency(0.1);
    EXPECT_EQ(ctl.evaluations(), round + 1);
  }
}

}  // namespace
}  // namespace askel
