#include "workload/paper_example.hpp"

namespace askel {

PaperExampleSkeleton make_paper_example_skeleton() {
  // Muscles are inert: the replay never invokes them; only their identity
  // (shared fs/fm across levels, as in the paper's Listing 1) matters.
  auto fs = split_muscle<int, int>("fs", [](int) { return std::vector<int>{0, 0, 0}; });
  auto fe = execute_muscle<int, int>("fe", [](int v) { return v; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int>) { return 0; });

  Skel<int, int> inner = Map(fs, Seq(fe), fm);
  Skel<int, int> outer = Map(fs, inner, fm);

  PaperExampleSkeleton s{outer, outer.node().get(), nullptr, nullptr,
                         fs.m->id(), fe.m->id(), fm.m->id()};
  s.inner = s.outer->children()[0];
  s.seq = s.inner->children()[0];
  return s;
}

PaperExampleReplay::PaperExampleReplay(double rho)
    : skel_(make_paper_example_skeleton()), reg_(rho), trackers_(reg_) {
  build_schedule();
}

void PaperExampleReplay::push(TimePoint t, const SkelNode* node, std::int64_t exec,
                              std::int64_t parent, When when, Where where,
                              int muscle_id, int card, int child_index) {
  TimedEvent te;
  te.t = t;
  te.ev.when = when;
  te.ev.where = where;
  te.ev.exec_id = exec;
  te.ev.parent_exec_id = parent;
  te.ev.node = node;
  te.ev.muscle_id = muscle_id;
  te.ev.timestamp = t;
  te.ev.cardinality = card;
  te.ev.child_index = child_index;
  events_.push_back(std::move(te));
}

void PaperExampleReplay::build_schedule() {
  // Dynamic instances: O = the outer map; I1..I3 its three inner maps in
  // start order; Sxy = the y-th seq of inner map x. The timestamps replay
  // the LP=2 execution the paper's Figure 1 depicts (two workers; started
  // inner maps are driven to completion before the third one begins).
  const SkelNode* O = skel_.outer;
  const SkelNode* I = skel_.inner;
  const SkelNode* S = skel_.seq;
  const int fs = skel_.fs_id, fe = skel_.fe_id, fm = skel_.fm_id;
  enum : std::int64_t { o = 0, i1 = 1, i2 = 2, i3 = 3 };
  const std::int64_t s1[3] = {4, 5, 6}, s2[3] = {7, 8, 9}, s3[3] = {10, 11, 12};
  const auto B = When::kBefore, A = When::kAfter;

  // t=0: the outer split starts (single worker busy).
  push(0, O, o, -1, B, Where::kSkeleton, -1);
  push(0, O, o, -1, B, Where::kSplit, fs);
  // t=10: split done (3 chunks); workers pick inner maps 1 and 2.
  push(10, O, o, -1, A, Where::kSplit, fs, 3);
  push(10, O, o, -1, B, Where::kNested, -1, -1, 0);
  push(10, I, i1, o, B, Where::kSkeleton, -1);
  push(10, I, i1, o, B, Where::kSplit, fs);
  push(10, O, o, -1, B, Where::kNested, -1, -1, 1);
  push(10, I, i2, o, B, Where::kSkeleton, -1);
  push(10, I, i2, o, B, Where::kSplit, fs);
  // t=20: both inner splits done; first executes start.
  push(20, I, i1, o, A, Where::kSplit, fs, 3);
  push(20, I, i1, o, B, Where::kNested, -1, -1, 0);
  push(20, S, s1[0], i1, B, Where::kExecute, fe);
  push(20, I, i2, o, A, Where::kSplit, fs, 3);
  push(20, I, i2, o, B, Where::kNested, -1, -1, 0);
  push(20, S, s2[0], i2, B, Where::kExecute, fe);
  // t=35 and t=50: the per-chunk executes proceed two at a time.
  for (int round = 0; round < 2; ++round) {
    const TimePoint t = 35 + 15 * round;
    push(t, S, s1[round], i1, A, Where::kExecute, fe);
    push(t, I, i1, o, A, Where::kNested, -1, -1, round);
    push(t, I, i1, o, B, Where::kNested, -1, -1, round + 1);
    push(t, S, s1[round + 1], i1, B, Where::kExecute, fe);
    push(t, S, s2[round], i2, A, Where::kExecute, fe);
    push(t, I, i2, o, A, Where::kNested, -1, -1, round);
    push(t, I, i2, o, B, Where::kNested, -1, -1, round + 1);
    push(t, S, s2[round + 1], i2, B, Where::kExecute, fe);
  }
  // t=65: last executes finish; worker 1 starts merge 1, worker 2 picks the
  // third inner map (its split runs 65..75).
  push(65, S, s1[2], i1, A, Where::kExecute, fe);
  push(65, I, i1, o, A, Where::kNested, -1, -1, 2);
  push(65, I, i1, o, B, Where::kMerge, fm);
  push(65, S, s2[2], i2, A, Where::kExecute, fe);
  push(65, I, i2, o, A, Where::kNested, -1, -1, 2);
  push(65, O, o, -1, B, Where::kNested, -1, -1, 2);
  push(65, I, i3, o, B, Where::kSkeleton, -1);
  push(65, I, i3, o, B, Where::kSplit, fs);
  // t=70: merge 1 done — the paper's observation instant; merge 2 starts.
  push(70, I, i1, o, A, Where::kMerge, fm);
  push(70, I, i1, o, A, Where::kSkeleton, -1);
  push(70, O, o, -1, A, Where::kNested, -1, -1, 0);
  push(70, I, i2, o, B, Where::kMerge, fm);
  // t=75: merge 2 and split 3 done; two of map 3's executes start.
  push(75, I, i2, o, A, Where::kMerge, fm);
  push(75, I, i2, o, A, Where::kSkeleton, -1);
  push(75, O, o, -1, A, Where::kNested, -1, -1, 1);
  push(75, I, i3, o, A, Where::kSplit, fs, 3);
  push(75, I, i3, o, B, Where::kNested, -1, -1, 0);
  push(75, S, s3[0], i3, B, Where::kExecute, fe);
  push(75, I, i3, o, B, Where::kNested, -1, -1, 1);
  push(75, S, s3[1], i3, B, Where::kExecute, fe);
  // t=90: they finish; the third execute runs alone (only 2 workers).
  push(90, S, s3[0], i3, A, Where::kExecute, fe);
  push(90, I, i3, o, A, Where::kNested, -1, -1, 0);
  push(90, S, s3[1], i3, A, Where::kExecute, fe);
  push(90, I, i3, o, A, Where::kNested, -1, -1, 1);
  push(90, I, i3, o, B, Where::kNested, -1, -1, 2);
  push(90, S, s3[2], i3, B, Where::kExecute, fe);
  // t=105..115: merge 3, then the outer merge.
  push(105, S, s3[2], i3, A, Where::kExecute, fe);
  push(105, I, i3, o, A, Where::kNested, -1, -1, 2);
  push(105, I, i3, o, B, Where::kMerge, fm);
  push(110, I, i3, o, A, Where::kMerge, fm);
  push(110, I, i3, o, A, Where::kSkeleton, -1);
  push(110, O, o, -1, A, Where::kNested, -1, -1, 2);
  push(110, O, o, -1, B, Where::kMerge, fm);
  push(115, O, o, -1, A, Where::kMerge, fm);
  push(115, O, o, -1, A, Where::kSkeleton, -1);
}

void PaperExampleReplay::replay_until(TimePoint t) {
  while (cursor_ < events_.size() && events_[cursor_].t <= t) {
    trackers_.on_event(events_[cursor_].ev);
    ++cursor_;
  }
}

}  // namespace askel
