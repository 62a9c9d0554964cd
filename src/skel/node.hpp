#pragma once
// Skeleton AST node base + execution context.
//
// The skeleton syntax of the paper (§3):
//   ∆ ::= seq(fe) | farm(∆) | pipe(∆1,∆2) | while(fc,∆) | if(fc,∆t,∆f)
//       | for(n,∆) | map(fs,∆,fm) | fork(fs,{∆},fm) | d&C(fc,fs,∆,fm)
//
// A SkelNode tree is immutable once built and can be executed concurrently by
// many inputs; all dynamic state lives in the per-run ExecContext and in the
// closures the interpreter creates.
//
// Execution is continuation-passing: `exec` never blocks on child results, it
// schedules children on the pool and finishes by invoking `cont` with the
// result. Hence a pool with LP=1 still completes arbitrarily nested skeletons
// (no worker ever waits on a future).

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "events/event_bus.hpp"
#include "runtime/thread_pool.hpp"
#include "skel/muscle.hpp"
#include "util/clock.hpp"

namespace askel {

class SkelNode;

enum class SkelKind : int {
  kSeq, kFarm, kPipe, kWhile, kFor, kIf, kMap, kFork, kDaC,
};

std::string to_string(SkelKind k);

/// Continuation receiving the result of a (sub-)skeleton execution.
using Cont = std::function<void(Any)>;

/// Dynamic call-stack of skeleton nodes from the root to the current one.
using Trace = std::vector<const SkelNode*>;

/// Dynamic frame of one skeleton-instance execution: its trace and ids.
struct Frame {
  Trace trace;                       // root .. current node
  std::int64_t exec_id = -1;         // this instance (the paper's i)
  std::int64_t parent_exec_id = -1;  // enclosing instance, -1 at root
};

class ExecContext;
using CtxPtr = std::shared_ptr<ExecContext>;

/// Per-run mutable state shared by all tasks of one `Engine::run`.
/// alignas(64): make_shared puts the control block (the handles' reference
/// count) on the cache line before the fields every task reads.
class alignas(64) ExecContext {
 public:
  ExecContext(ResizableThreadPool& pool, EventBus& bus, const Clock& clock,
              int tenant = 0);

  /// Globally unique (process-wide) so trackers can key dynamic instances
  /// across consecutive runs without collisions.
  std::int64_t new_exec_id();

  /// Emit an event through the bus; returns the possibly rewritten partial
  /// solution. Runs synchronously on the calling (worker) thread. The event
  /// borrows `f`'s trace for the duration of the dispatch.
  Any emit(Any param, const Frame& f, When when, Where where, int muscle_id,
           int cardinality = -1, bool condition_result = false,
           int child_index = -1);

  /// Record a failure; the first failure wins and completes the run
  /// exceptionally. Subsequent tasks short-circuit via `failed()`.
  void fail(std::exception_ptr e);
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// Submit under this run's coordinator tenant (0 = none).
  void spawn(Task t) { pool_.submit(std::move(t), tenant_); }

  /// Completion hooks installed by the engine.
  std::function<void(Any)> complete;
  std::function<void(std::exception_ptr)> complete_error;

 private:
  ResizableThreadPool& pool_;
  EventBus& bus_;
  const Clock& clock_;
  int tenant_;
  std::atomic<bool> failed_{false};
  std::atomic<bool> error_delivered_{false};
};

class SkelNode {
 public:
  explicit SkelNode(SkelKind kind);
  virtual ~SkelNode() = default;
  SkelNode(const SkelNode&) = delete;
  SkelNode& operator=(const SkelNode&) = delete;

  SkelKind kind() const { return kind_; }
  /// Process-wide unique id of the static node.
  int id() const { return id_; }
  virtual std::string name() const { return to_string(kind_); }

  /// Execute one input. `parent` is the frame of the enclosing instance
  /// (empty-trace frame with exec_id -1 at the root).
  virtual void exec(const CtxPtr& ctx, const Frame& parent, Any input,
                    Cont cont) const = 0;

  /// Static children, in structural order.
  virtual std::vector<const SkelNode*> children() const = 0;
  /// Muscles referenced directly by this node.
  virtual std::vector<const Muscle*> muscles() const = 0;

  /// Open a frame for a new dynamic instance of this node.
  Frame open_frame(const CtxPtr& ctx, const Frame& parent) const;

 private:
  SkelKind kind_;
  int id_;
};

using NodePtr = std::shared_ptr<const SkelNode>;

/// Total number of static nodes in the tree rooted at `root` (incl. root).
std::size_t tree_size(const SkelNode& root);
/// All distinct muscles referenced anywhere in the tree.
std::vector<const Muscle*> tree_muscles(const SkelNode& root);

/// Guard a muscle invocation or a whole task: runs `body()`, routes
/// exceptions to ctx.fail. Returns true on success.
template <class F>
bool guarded(const CtxPtr& ctx, F&& body) {
  try {
    body();
    return true;
  } catch (...) {
    ctx->fail(std::current_exception());
    return false;
  }
}

}  // namespace askel
