// Tests for the skeleton library: every pattern of the paper's grammar,
// nesting, the event protocol (paper §3), and failure propagation.

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>
#include <thread>
#include <tuple>

#include "skel/detail/join.hpp"
#include "skel/trace.hpp"
#include "skel/typed.hpp"

namespace askel {
namespace {

class SkelTest : public ::testing::Test {
 protected:
  SkelTest() : pool_(2, 8), engine_(pool_, bus_) {}

  ResizableThreadPool pool_;
  EventBus bus_;
  Engine engine_;
};

TEST_F(SkelTest, SeqComputes) {
  auto fe = execute_muscle<int, int>("sq", [](int x) { return x * x; });
  auto skel = Seq(fe);
  EXPECT_EQ(skel.input(7, engine_).get(), 49);
}

TEST_F(SkelTest, SeqDifferentTypes) {
  auto fe = execute_muscle<std::string, std::size_t>(
      "len", [](std::string s) { return s.size(); });
  EXPECT_EQ(Seq(fe).input("hello", engine_).get(), 5u);
}

TEST_F(SkelTest, MapSplitsComputesMerges) {
  auto fs = split_muscle<std::vector<int>, int>(
      "fs", [](std::vector<int> v) { return v; });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x * x; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int> v) {
    return std::accumulate(v.begin(), v.end(), 0);
  });
  auto skel = Map(fs, Seq(fe), fm);
  EXPECT_EQ(skel.input({1, 2, 3, 4}, engine_).get(), 30);
}

TEST_F(SkelTest, MapPreservesElementOrder) {
  auto fs = split_muscle<int, int>("fs", [](int n) {
    std::vector<int> v(n);
    std::iota(v.begin(), v.end(), 0);
    return v;
  });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, std::vector<int>>(
      "fm", [](std::vector<int> v) { return v; });
  const std::vector<int> out = Map(fs, Seq(fe), fm).input(16, engine_).get();
  for (int k = 0; k < 16; ++k) EXPECT_EQ(out[k], k);
}

TEST_F(SkelTest, MapWithEmptySplitRunsMergeOnEmptyList) {
  auto fs = split_muscle<int, int>("fs", [](int) { return std::vector<int>{}; });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("fm",
                                   [](std::vector<int> v) { return (int)v.size(); });
  EXPECT_EQ(Map(fs, Seq(fe), fm).input(0, engine_).get(), 0);
}

TEST_F(SkelTest, NestedMapsListing1Shape) {
  // map(fs, map(fs, seq(fe), fm), fm) with shared fs/fm (paper Listing 1).
  auto fs = split_muscle<std::vector<int>, std::vector<int>>(
      "fs", [](std::vector<int> v) {
        const std::size_t half = v.size() / 2;
        return std::vector<std::vector<int>>{
            std::vector<int>(v.begin(), v.begin() + half),
            std::vector<int>(v.begin() + half, v.end())};
      });
  auto fe = execute_muscle<std::vector<int>, std::vector<int>>(
      "fe", [](std::vector<int> v) {
        for (int& x : v) x += 1;
        return v;
      });
  auto fm = merge_muscle<std::vector<int>, std::vector<int>>(
      "fm", [](std::vector<std::vector<int>> parts) {
        std::vector<int> out;
        for (auto& p : parts) out.insert(out.end(), p.begin(), p.end());
        return out;
      });
  auto nested = Map(fs, Seq(fe), fm);
  auto main_skel = Map(fs, nested, fm);
  const std::vector<int> out = main_skel.input({0, 1, 2, 3, 4, 5, 6, 7}, engine_).get();
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST_F(SkelTest, PipeAppliesStagesInOrder) {
  auto f1 = execute_muscle<int, int>("x2", [](int x) { return x * 2; });
  auto f2 = execute_muscle<int, int>("p3", [](int x) { return x + 3; });
  EXPECT_EQ(Pipe(Seq(f1), Seq(f2)).input(10, engine_).get(), 23);
  EXPECT_EQ(Pipe(Seq(f2), Seq(f1)).input(10, engine_).get(), 26);
}

TEST_F(SkelTest, PipeOfPipes) {
  auto inc = execute_muscle<int, int>("inc", [](int x) { return x + 1; });
  auto p = Pipe(Pipe(Seq(inc), Seq(inc)), Pipe(Seq(inc), Seq(inc)));
  EXPECT_EQ(p.input(0, engine_).get(), 4);
}

TEST_F(SkelTest, FarmPassesThrough) {
  auto fe = execute_muscle<int, int>("fe", [](int x) { return -x; });
  EXPECT_EQ(Farm(Seq(fe)).input(5, engine_).get(), -5);
}

TEST_F(SkelTest, FarmHandlesManyConcurrentInputs) {
  auto fe = execute_muscle<int, int>("fe", [](int x) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return x + 100;
  });
  auto farm = Farm(Seq(fe));
  std::vector<Future<int>> futures;
  for (int k = 0; k < 32; ++k) futures.push_back(farm.input(k, engine_));
  for (int k = 0; k < 32; ++k) EXPECT_EQ(futures[k].get(), k + 100);
}

TEST_F(SkelTest, WhileIteratesUntilConditionFalse) {
  auto fc = condition_muscle<int>("lt100", [](const int& x) { return x < 100; });
  auto body = execute_muscle<int, int>("x2", [](int x) { return x * 2; });
  EXPECT_EQ(While(fc, Seq(body)).input(3, engine_).get(), 192);
}

TEST_F(SkelTest, WhileWithImmediatelyFalseConditionIsIdentity) {
  auto fc = condition_muscle<int>("never", [](const int&) { return false; });
  auto body = execute_muscle<int, int>("boom", [](int) -> int {
    throw std::runtime_error("body must not run");
  });
  EXPECT_EQ(While(fc, Seq(body)).input(42, engine_).get(), 42);
}

TEST_F(SkelTest, ForRunsExactlyNTimes) {
  auto inc = execute_muscle<int, int>("inc", [](int x) { return x + 1; });
  EXPECT_EQ(For(5, Seq(inc)).input(0, engine_).get(), 5);
}

TEST_F(SkelTest, ForZeroIterationsIsIdentity) {
  auto inc = execute_muscle<int, int>("inc", [](int x) { return x + 1; });
  EXPECT_EQ(For(0, Seq(inc)).input(9, engine_).get(), 9);
}

TEST_F(SkelTest, ForRejectsNegativeCount) {
  auto inc = execute_muscle<int, int>("inc", [](int x) { return x + 1; });
  EXPECT_THROW(For(-1, Seq(inc)), std::invalid_argument);
}

TEST_F(SkelTest, IfSelectsBranchByCondition) {
  auto fc = condition_muscle<int>("pos", [](const int& x) { return x > 0; });
  auto yes = execute_muscle<int, std::string>("yes", [](int) { return std::string("pos"); });
  auto no = execute_muscle<int, std::string>("no", [](int) { return std::string("neg"); });
  auto skel = If(fc, Seq(yes), Seq(no));
  EXPECT_EQ(skel.input(4, engine_).get(), "pos");
  EXPECT_EQ(skel.input(-4, engine_).get(), "neg");
}

TEST_F(SkelTest, ForkCyclesBranchesOverElements) {
  auto fs = split_muscle<int, int>("fs", [](int n) {
    std::vector<int> v(n, 1);
    return v;
  });
  auto dbl = execute_muscle<int, int>("dbl", [](int x) { return x * 2; });
  auto neg = execute_muscle<int, int>("neg", [](int x) { return -x; });
  auto fm = merge_muscle<int, std::vector<int>>("fm",
                                                [](std::vector<int> v) { return v; });
  auto skel = Fork(fs, {Seq(dbl), Seq(neg)}, fm);
  // 4 elements over 2 branches: dbl, neg, dbl, neg.
  EXPECT_EQ(skel.input(4, engine_).get(), (std::vector<int>{2, -1, 2, -1}));
}

TEST_F(SkelTest, ForkRejectsEmptyBranchList) {
  auto fs = split_muscle<int, int>("fs", [](int) { return std::vector<int>{1}; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int>) { return 0; });
  EXPECT_THROW(Fork(fs, std::vector<Skel<int, int>>{}, fm), std::invalid_argument);
}

TEST_F(SkelTest, DacMergesortSortsCorrectly) {
  using Vec = std::vector<int>;
  auto fc = condition_muscle<Vec>("big", [](const Vec& v) { return v.size() > 2; });
  auto fs = split_muscle<Vec, Vec>("half", [](Vec v) {
    const std::size_t half = v.size() / 2;
    return std::vector<Vec>{Vec(v.begin(), v.begin() + half),
                            Vec(v.begin() + half, v.end())};
  });
  auto leaf = execute_muscle<Vec, Vec>("sort", [](Vec v) {
    std::sort(v.begin(), v.end());
    return v;
  });
  auto fm = merge_muscle<Vec, Vec>("merge", [](std::vector<Vec> parts) {
    Vec out;
    for (Vec& p : parts) {
      Vec next(out.size() + p.size());
      std::merge(out.begin(), out.end(), p.begin(), p.end(), next.begin());
      out = std::move(next);
    }
    return out;
  });
  auto skel = DaC(fc, fs, Seq(leaf), fm);
  Vec input = {9, 3, 7, 1, 8, 2, 6, 5, 4, 0, 11, 10};
  Vec expected = input;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(skel.input(input, engine_).get(), expected);
}

TEST_F(SkelTest, DacWithEmptySplitRunsMergeOnEmptyList) {
  // Condition says divide, but the split produces zero children: the merge
  // must run inline on the empty list (no join to wait on) and the future
  // still resolves.
  auto fc = condition_muscle<int>("once", [](const int& x) { return x > 0; });
  auto fs = split_muscle<int, int>("fs", [](int) { return std::vector<int>{}; });
  auto leaf = execute_muscle<int, int>("leaf", [](int x) { return x; });
  auto fm = merge_muscle<int, int>(
      "fm", [](std::vector<int> v) { return static_cast<int>(v.size()) - 7; });
  EXPECT_EQ(DaC(fc, fs, Seq(leaf), fm).input(1, engine_).get(), -7);
}

TEST_F(SkelTest, ForkWithEmptySplitRunsMergeOnEmptyList) {
  auto fs = split_muscle<int, int>("fs", [](int) { return std::vector<int>{}; });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, int>(
      "fm", [](std::vector<int> v) { return static_cast<int>(v.size()) + 40; });
  EXPECT_EQ(Fork(fs, std::vector{Seq(fe)}, fm).input(5, engine_).get(), 40);
}

TEST(JoinState, RejectsEmptyFanOut) {
  // The fan-in counter narrows size_t to int and decrements to zero; n == 0
  // would start AT zero (merge never fires — or double-fires, depending on
  // the arrive order). Every caller handles the empty split inline before
  // constructing a join; the guard turns a silent hang into a loud bug.
  EXPECT_THROW(detail::JoinState(0), std::logic_error);
  const detail::JoinState ok(3);
  EXPECT_EQ(ok.remaining.load(), 3);
  EXPECT_EQ(ok.results.size(), 3u);
}

TEST_F(SkelTest, DacLeafOnlyWhenConditionImmediatelyFalse) {
  auto fc = condition_muscle<int>("never", [](const int&) { return false; });
  auto fs = split_muscle<int, int>("fs", [](int) { return std::vector<int>{0}; });
  auto leaf = execute_muscle<int, int>("leaf", [](int x) { return x + 1; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int>) { return -1; });
  EXPECT_EQ(DaC(fc, fs, Seq(leaf), fm).input(10, engine_).get(), 11);
}

// ----------------------------------------------------------- error paths --

TEST_F(SkelTest, ExecuteMuscleExceptionPropagatesToFuture) {
  auto fe = execute_muscle<int, int>("boom", [](int) -> int {
    throw std::runtime_error("kaboom");
  });
  EXPECT_THROW(Seq(fe).input(1, engine_).get(), std::runtime_error);
}

TEST_F(SkelTest, SplitMuscleExceptionPropagates) {
  auto fs = split_muscle<int, int>("boom", [](int) -> std::vector<int> {
    throw std::logic_error("split failed");
  });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int>) { return 0; });
  EXPECT_THROW(Map(fs, Seq(fe), fm).input(1, engine_).get(), std::logic_error);
}

TEST_F(SkelTest, MergeMuscleExceptionPropagates) {
  auto fs = split_muscle<int, int>("fs", [](int) { return std::vector<int>{1, 2}; });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("boom", [](std::vector<int>) -> int {
    throw std::domain_error("merge failed");
  });
  EXPECT_THROW(Map(fs, Seq(fe), fm).input(1, engine_).get(), std::domain_error);
}

TEST_F(SkelTest, ConditionMuscleExceptionPropagates) {
  auto fc = condition_muscle<int>("boom", [](const int&) -> bool {
    throw std::runtime_error("cond failed");
  });
  auto body = execute_muscle<int, int>("fe", [](int x) { return x; });
  EXPECT_THROW(While(fc, Seq(body)).input(1, engine_).get(), std::runtime_error);
}

TEST_F(SkelTest, OneFailingElementFailsEveryFanOut) {
  // Elements 0..7; element 3 throws. The elements that never arrive must not
  // leave the shared fan-out record (or anything it holds) behind.
  auto fs = split_muscle<int, int>("fs", [](int n) {
    std::vector<int> v(n);
    std::iota(v.begin(), v.end(), 0);
    return v;
  });
  auto fe = execute_muscle<int, int>("fe", [](int x) -> int {
    if (x == 3) throw std::runtime_error("element 3");
    return x;
  });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int>) { return 0; });
  auto divide_8 = condition_muscle<int>("fc", [](const int& x) { return x >= 8; });
  EXPECT_THROW(Map(fs, Seq(fe), fm).input(8, engine_).get(), std::runtime_error);
  EXPECT_THROW(Fork(fs, {Seq(fe), Seq(fe)}, fm).input(8, engine_).get(),
               std::runtime_error);
  EXPECT_THROW(DaC(divide_8, fs, Seq(fe), fm).input(8, engine_).get(),
               std::runtime_error);
}

TEST_F(SkelTest, ThrowingListenerFailsTheRun) {
  // A listener runs on the muscle's thread inside the element's task; its
  // exception must fail the run like a muscle's, not escape the worker.
  bus_.add_listener(std::make_shared<FilteredListener>(
      When::kAfter, Where::kExecute, [](std::any p, const Event&) -> std::any {
        if (std::any_cast<int>(p) == 4) throw std::runtime_error("listener");
        return p;
      }));
  auto fs = split_muscle<int, int>("fs", [](int n) {
    std::vector<int> v(n);
    std::iota(v.begin(), v.end(), 0);
    return v;
  });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int>) { return 0; });
  try {
    Map(fs, Seq(fe), fm).input(8, engine_).get();
    ADD_FAILURE() << "the listener's exception was not delivered";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "listener");
  }
}

TEST_F(SkelTest, TypeMismatchSurfacesAsBadAnyCast) {
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto skel = Seq(fe);
  // Wrong input type for the muscle: the any_cast inside the wrapper throws.
  EXPECT_THROW(engine_.run(skel.node(), Any(std::string("oops")))->get(),
               std::bad_any_cast);
}

// ---------------------------------------------------------------- future --

TEST_F(SkelTest, FutureWaitForAndReady) {
  auto fe = execute_muscle<int, int>("slow", [](int x) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return x;
  });
  Future<int> fut = Seq(fe).input(1, engine_);
  EXPECT_FALSE(fut.ready());
  EXPECT_TRUE(fut.wait_for(5.0));
  EXPECT_TRUE(fut.ready());
  EXPECT_EQ(fut.get(), 1);
}

TEST_F(SkelTest, FutureWaitForTimesOut) {
  auto fe = execute_muscle<int, int>("slow", [](int x) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return x;
  });
  Future<int> fut = Seq(fe).input(1, engine_);
  EXPECT_FALSE(fut.wait_for(0.005));
  EXPECT_EQ(fut.get(), 1);
}

// ---------------------------------------------------------------- events --

struct Recorded {
  When when;
  Where where;
  std::int64_t exec_id;
  int cardinality;
  std::string trace;
  std::thread::id thread;
};

class Recorder {
 public:
  explicit Recorder(EventBus& bus) {
    bus.add_listener(std::make_shared<GenericListener>(
        [this](std::any p, const Event& ev) {
          std::lock_guard lock(mu_);
          events_.push_back(Recorded{ev.when, ev.where, ev.exec_id, ev.cardinality,
                                     to_string(ev.trace),
                                     std::this_thread::get_id()});
          return p;
        }));
  }
  std::vector<Recorded> events() const {
    std::lock_guard lock(mu_);
    return events_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Recorded> events_;
};

TEST_F(SkelTest, SeqEmitsBeforeAndAfterWithSameIndex) {
  Recorder rec(bus_);
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  Seq(fe).input(1, engine_).get();
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].when, When::kBefore);
  EXPECT_EQ(evs[0].where, Where::kExecute);
  EXPECT_EQ(evs[1].when, When::kAfter);
  EXPECT_EQ(evs[1].where, Where::kExecute);
  EXPECT_EQ(evs[0].exec_id, evs[1].exec_id);  // the paper's i correlation
  EXPECT_EQ(evs[0].trace, "seq");
}

TEST_F(SkelTest, MapEmitsTheEightPaperEvents) {
  Recorder rec(bus_);
  auto fs = split_muscle<int, int>("fs", [](int) { return std::vector<int>{1, 2}; });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int>) { return 0; });
  Map(fs, Seq(fe), fm).input(7, engine_).get();

  // Events of the *map* instance only (the nested seqs have their own ids).
  std::vector<Recorded> evs;
  for (const Recorded& e : rec.events())
    if (e.trace == "map") evs.push_back(e);
  // The paper's "Map skeleton has eight events defined" counts event KINDS;
  // the nested before/after pair fires once per element (2 here), so this
  // run emits 10 occurrences of exactly 8 kinds.
  ASSERT_EQ(evs.size(), 10u);
  std::set<std::pair<When, Where>> kinds;
  for (const Recorded& e : evs) kinds.emplace(e.when, e.where);
  EXPECT_EQ(kinds.size(), 8u);
  EXPECT_EQ(evs.front().where, Where::kSkeleton);
  EXPECT_EQ(evs.front().when, When::kBefore);
  EXPECT_EQ(evs[1].where, Where::kSplit);
  EXPECT_EQ(evs[1].when, When::kBefore);
  EXPECT_EQ(evs[2].where, Where::kSplit);
  EXPECT_EQ(evs[2].when, When::kAfter);
  EXPECT_EQ(evs[2].cardinality, 2);  // fsCard of map@as(i, fsCard)
  EXPECT_EQ(evs.back().where, Where::kSkeleton);
  EXPECT_EQ(evs.back().when, When::kAfter);
  // All events of the instance share the index i.
  for (const Recorded& e : evs) EXPECT_EQ(e.exec_id, evs[0].exec_id);
}

TEST_F(SkelTest, HandlerRunsOnSameThreadAsMuscle) {
  std::thread::id muscle_thread;
  auto fe = execute_muscle<int, int>("fe", [&muscle_thread](int x) {
    muscle_thread = std::this_thread::get_id();
    return x;
  });
  Recorder rec(bus_);
  Seq(fe).input(1, engine_).get();
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].thread, muscle_thread);  // before: next muscle's thread
  EXPECT_EQ(evs[1].thread, muscle_thread);  // after: previous muscle's thread
}

TEST_F(SkelTest, TraceShowsNestingPath) {
  Recorder rec(bus_);
  auto fs = split_muscle<int, int>("fs", [](int) { return std::vector<int>{1}; });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int>) { return 0; });
  Map(fs, Map(fs, Seq(fe), fm), fm).input(1, engine_).get();
  std::set<std::string> traces;
  for (const Recorded& e : rec.events()) traces.insert(e.trace);
  EXPECT_TRUE(traces.count("map"));
  EXPECT_TRUE(traces.count("map/map"));
  EXPECT_TRUE(traces.count("map/map/seq"));
}

TEST_F(SkelTest, ListenerCanRewriteThePartialSolution) {
  // A before-execute listener that doubles the value entering the muscle.
  bus_.add_listener(std::make_shared<FilteredListener>(
      When::kBefore, Where::kExecute,
      [](std::any p, const Event&) { return std::any(std::any_cast<int>(p) * 2); }));
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x + 1; });
  EXPECT_EQ(Seq(fe).input(10, engine_).get(), 21);  // (10*2)+1
}

TEST_F(SkelTest, WhileEmitsConditionEventsWithResults) {
  Recorder rec(bus_);
  auto fc = condition_muscle<int>("lt2", [](const int& x) { return x < 2; });
  auto inc = execute_muscle<int, int>("inc", [](int x) { return x + 1; });
  While(fc, Seq(inc)).input(0, engine_).get();
  int cond_events = 0;
  for (const Recorded& e : rec.events())
    if (e.where == Where::kCondition && e.when == When::kAfter) ++cond_events;
  EXPECT_EQ(cond_events, 3);  // true, true, false
}

TEST_F(SkelTest, TreeIntrospection) {
  auto fs = split_muscle<int, int>("fs", [](int) { return std::vector<int>{1}; });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int>) { return 0; });
  auto skel = Map(fs, Map(fs, Seq(fe), fm), fm);
  EXPECT_EQ(tree_size(*skel.node()), 3u);  // map, map, seq
  const auto muscles = tree_muscles(*skel.node());
  EXPECT_EQ(muscles.size(), 3u);  // fs, fm shared; fe
}

// Well-formedness of event streams, checked across every skeleton pattern:
// per dynamic instance, Before/After events of each Where are balanced, and
// the instance's first event is a Before.
void expect_well_formed(const std::vector<Recorded>& events) {
  std::map<std::int64_t, std::map<Where, int>> open;
  std::map<std::int64_t, bool> seen;
  for (const Recorded& e : events) {
    if (!seen[e.exec_id]) {
      EXPECT_EQ(e.when, When::kBefore) << "instance " << e.exec_id;
      seen[e.exec_id] = true;
    }
    int& depth = open[e.exec_id][e.where];
    if (e.when == When::kBefore) {
      ++depth;
    } else {
      --depth;
      EXPECT_GE(depth, 0) << "unbalanced " << to_string(e.where) << " in instance "
                          << e.exec_id;
    }
  }
  for (const auto& [exec, wheres] : open) {
    for (const auto& [where, depth] : wheres) {
      EXPECT_EQ(depth, 0) << "instance " << exec << " leaves " << to_string(where)
                          << " open";
    }
  }
}

TEST_F(SkelTest, EventStreamsAreWellFormedForEveryPattern) {
  auto fs = split_muscle<int, int>("fs", [](int) { return std::vector<int>{1, 2}; });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int>) { return 1; });
  auto lt = condition_muscle<int>("lt", [](const int& x) { return x < 2; });
  auto big = condition_muscle<int>("big", [](const int& x) { return x > 4; });
  auto inc = execute_muscle<int, int>("inc", [](int x) { return x + 1; });
  auto halve = split_muscle<int, int>("halve", [](int n) {
    return std::vector<int>{n / 2, n - n / 2};
  });

  const std::vector<std::pair<const char*, Skel<int, int>>> patterns = {
      {"seq", Seq(fe)},
      {"farm", Farm(Seq(fe))},
      {"pipe", Pipe(Seq(fe), Seq(inc))},
      {"while", While(lt, Seq(inc))},
      {"for", For(3, Seq(inc))},
      {"if", If(lt, Seq(fe), Seq(inc))},
      {"map", Map(fs, Seq(fe), fm)},
      {"fork", Fork(fs, {Seq(fe), Seq(inc)}, fm)},
      {"dac", DaC(big, halve, Seq(fe), fm)},
  };
  for (const auto& [name, skel] : patterns) {
    EventBus bus;
    Engine engine(pool_, bus);
    Recorder rec(bus);
    skel.input(7, engine).get();
    SCOPED_TRACE(name);
    const auto events = rec.events();
    EXPECT_FALSE(events.empty());
    expect_well_formed(events);
  }
}

TEST_F(SkelTest, LowLpStillCompletesDeepNesting) {
  // LP=1 must not deadlock: the engine never blocks a worker on a future.
  ResizableThreadPool pool(1, 1);
  Engine engine(pool, bus_);
  auto fs = split_muscle<int, int>("fs", [](int n) {
    return std::vector<int>(static_cast<std::size_t>(n), 1);
  });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int> v) {
    return std::accumulate(v.begin(), v.end(), 0);
  });
  auto inner = Map(fs, Seq(fe), fm);
  auto outer = Map(fs, inner, fm);
  // fs(4) → four 1s; each inner map reduces its single element to 1; the
  // outer merge sums the four partial results.
  EXPECT_EQ(outer.input(4, engine).get(), 4);
}

// ----------------------------------------------------------- long loops --
//
// A body that completes inside its own exec (a seq runs inline) must not
// cost the loop a stack frame per iteration: a million iterations run on
// one worker's stack, at LP 1 and LP 4, with and without a listener.

class LongLoopTest : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
#ifdef ASKEL_TSAN
  // ThreadSanitizer runs these loops about 20x slower. 100,000 iterations
  // still overflow an 8 MB stack when every iteration nests a frame.
  static constexpr int kIterations = 100'000;
#else
  static constexpr int kIterations = 1'000'000;
#endif

  LongLoopTest() : pool_(std::get<0>(GetParam()), 4), engine_(pool_, bus_) {
    if (std::get<1>(GetParam())) {
      bus_.add_listener(std::make_shared<ObserverListener>(
          [this](const Event&) { events_.fetch_add(1, std::memory_order_relaxed); }));
    }
  }
  /// Events seen, or `expected` when no listener is registered.
  long events_or(long expected) const {
    return std::get<1>(GetParam()) ? events_.load() : expected;
  }

  std::atomic<long> events_{0};  // outlives the pool, which runs the listener
  ResizableThreadPool pool_;
  EventBus bus_;
  Engine engine_;
};

TEST_P(LongLoopTest, ForOfSeqRunsAMillionIterations) {
  auto inc = execute_muscle<int, int>("inc", [](int x) { return x + 1; });
  EXPECT_EQ(For(kIterations, Seq(inc)).input(0, engine_).get(), kIterations);
  // Per iteration: nested before/after and the seq's execute before/after.
  EXPECT_EQ(events_or(4L * kIterations + 2), 4L * kIterations + 2);
}

TEST_P(LongLoopTest, WhileOfSeqRunsAMillionIterations) {
  auto below =
      condition_muscle<int>("below", [](const int& x) { return x < kIterations; });
  auto inc = execute_muscle<int, int>("inc", [](int x) { return x + 1; });
  EXPECT_EQ(While(below, Seq(inc)).input(0, engine_).get(), kIterations);
  // Per iteration: the condition's two events and the body's four; then the
  // last condition and the skeleton's own pair.
  EXPECT_EQ(events_or(6L * kIterations + 4), 6L * kIterations + 4);
}

INSTANTIATE_TEST_SUITE_P(LpAndListener, LongLoopTest,
                         ::testing::Combine(::testing::Values(1, 4),
                                            ::testing::Bool()));

}  // namespace
}  // namespace askel
