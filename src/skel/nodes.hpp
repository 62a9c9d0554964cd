#pragma once
// Concrete skeleton nodes, one per production of the paper's grammar.
//
// Event protocol (paper §3): every node emits (Before, kSkeleton) when an
// instance starts and (After, kSkeleton) when it delivers its result. Muscle
// invocations are bracketed by (Before/After, kSplit|kMerge|kCondition|
// kExecute) events, and nested-skeleton elements by (Before/After, kNested)
// with the element index — for Map this yields exactly the eight events the
// paper lists.

#include <memory>
#include <vector>

#include "skel/node.hpp"

namespace askel {

using ExecPtr = std::shared_ptr<const ExecuteMuscle>;
using SplitPtr = std::shared_ptr<const SplitMuscle>;
using MergePtr = std::shared_ptr<const MergeMuscle>;
using CondPtr = std::shared_ptr<const ConditionMuscle>;

/// seq(fe) — wraps one execution muscle.
class SeqNode final : public SkelNode {
 public:
  explicit SeqNode(ExecPtr fe);
  void exec(const CtxPtr& ctx, const Frame& parent, Any input, Cont cont) const override;
  std::vector<const SkelNode*> children() const override { return {}; }
  std::vector<const Muscle*> muscles() const override { return {fe_.get()}; }
  const ExecuteMuscle& fe() const { return *fe_; }

 private:
  ExecPtr fe_;
};

/// farm(∆) — task replication; each input flows through the nested skeleton
/// independently (replication happens naturally across concurrent inputs).
class FarmNode final : public SkelNode {
 public:
  explicit FarmNode(NodePtr inner);
  void exec(const CtxPtr& ctx, const Frame& parent, Any input, Cont cont) const override;
  std::vector<const SkelNode*> children() const override { return {inner_.get()}; }
  std::vector<const Muscle*> muscles() const override { return {}; }

 private:
  NodePtr inner_;
};

/// pipe(∆1, ∆2) — staged computation.
class PipeNode final : public SkelNode {
 public:
  PipeNode(NodePtr stage1, NodePtr stage2);
  void exec(const CtxPtr& ctx, const Frame& parent, Any input, Cont cont) const override;
  std::vector<const SkelNode*> children() const override {
    return {stage1_.get(), stage2_.get()};
  }
  std::vector<const Muscle*> muscles() const override { return {}; }

 private:
  NodePtr stage1_;
  NodePtr stage2_;
};

/// while(fc, ∆) — iterate ∆ while fc holds.
class WhileNode final : public SkelNode {
 public:
  WhileNode(CondPtr fc, NodePtr body);
  void exec(const CtxPtr& ctx, const Frame& parent, Any input, Cont cont) const override;
  std::vector<const SkelNode*> children() const override { return {body_.get()}; }
  std::vector<const Muscle*> muscles() const override { return {fc_.get()}; }
  const ConditionMuscle& fc() const { return *fc_; }

 private:
  void iterate(const CtxPtr& ctx, const Frame& f, Any value, const Cont& cont) const;
  CondPtr fc_;
  NodePtr body_;
};

/// for(n, ∆) — iterate ∆ exactly n times.
class ForNode final : public SkelNode {
 public:
  ForNode(int n, NodePtr body);
  void exec(const CtxPtr& ctx, const Frame& parent, Any input, Cont cont) const override;
  std::vector<const SkelNode*> children() const override { return {body_.get()}; }
  std::vector<const Muscle*> muscles() const override { return {}; }
  int iterations() const { return n_; }

 private:
  void iterate(const CtxPtr& ctx, const Frame& f, int remaining, Any value,
               const Cont& cont) const;
  int n_;
  NodePtr body_;
};

/// if(fc, ∆true, ∆false) — conditional branching.
class IfNode final : public SkelNode {
 public:
  IfNode(CondPtr fc, NodePtr on_true, NodePtr on_false);
  void exec(const CtxPtr& ctx, const Frame& parent, Any input, Cont cont) const override;
  std::vector<const SkelNode*> children() const override {
    return {on_true_.get(), on_false_.get()};
  }
  std::vector<const Muscle*> muscles() const override { return {fc_.get()}; }
  const SkelNode* true_branch() const { return on_true_.get(); }
  const SkelNode* false_branch() const { return on_false_.get(); }

 private:
  CondPtr fc_;
  NodePtr on_true_;
  NodePtr on_false_;
};

/// Common base of map, fork and d&C: split, run one nested instance per part,
/// merge on the thread of the last element to arrive (skel/detail/join.hpp).
class FanOutNode : public SkelNode {
 public:
  /// Opens the instance, emits its Before-Skeleton event and fans out; d&C
  /// overrides it to evaluate its condition first.
  void exec(const CtxPtr& ctx, const Frame& parent, Any input, Cont cont) const override;
  std::vector<const Muscle*> muscles() const override {
    return {fs_.get(), fm_.get()};
  }
  const SplitMuscle& fs() const { return *fs_; }
  const MergeMuscle& fm() const { return *fm_; }
  /// The skeleton that element `i` of an instance runs.
  virtual const SkelNode& element(std::size_t i) const = 0;

 protected:
  FanOutNode(SkelKind kind, SplitPtr fs, MergePtr fm)
      : SkelNode(kind), fs_(std::move(fs)), fm_(std::move(fm)) {}

  SplitPtr fs_;
  MergePtr fm_;
};

/// map(fs, ∆, fm) — split, apply ∆ to every element in parallel, merge.
class MapNode final : public FanOutNode {
 public:
  MapNode(SplitPtr fs, NodePtr inner, MergePtr fm);
  std::vector<const SkelNode*> children() const override { return {inner_.get()}; }
  const SkelNode& element(std::size_t) const override { return *inner_; }

 private:
  NodePtr inner_;
};

/// fork(fs, {∆}, fm) — like map but element j runs skeleton ∆_{j mod |{∆}|}.
class ForkNode final : public FanOutNode {
 public:
  ForkNode(SplitPtr fs, std::vector<NodePtr> branches, MergePtr fm);
  std::vector<const SkelNode*> children() const override;
  std::size_t branch_count() const { return branches_.size(); }
  /// Skandium's fork applies "multiple instructions to multiple data";
  /// cycling keeps the node total when the split produces more elements
  /// than there are skeletons.
  const SkelNode& element(std::size_t i) const override {
    return *branches_[i % branches_.size()];
  }

 private:
  std::vector<NodePtr> branches_;
};

/// d&C(fc, fs, ∆, fm) — divide while fc holds, run ∆ at the leaves, merge up.
class DacNode final : public FanOutNode {
 public:
  DacNode(CondPtr fc, SplitPtr fs, NodePtr leaf, MergePtr fm);
  void exec(const CtxPtr& ctx, const Frame& parent, Any input, Cont cont) const override;
  std::vector<const SkelNode*> children() const override { return {leaf_.get()}; }
  std::vector<const Muscle*> muscles() const override {
    return {fc_.get(), fs_.get(), fm_.get()};
  }
  const ConditionMuscle& fc() const { return *fc_; }
  /// Every element recurses on this same node: d&C(fc, fs, ∆, fm) applied
  /// to the part.
  const SkelNode& element(std::size_t) const override { return *this; }

 private:
  CondPtr fc_;
  NodePtr leaf_;
};

}  // namespace askel
