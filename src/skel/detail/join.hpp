#pragma once
// Shared fan-out/fan-in machinery for map, fork and d&c, and the handoff
// that lets for and while iterate without nesting a stack frame per turn.
//
// One record per fan-out instance holds what its elements share: the
// context, the frame, the continuation, the split parts and the JoinState.
// Each element's task and continuation hold a handle to it and the element's
// index, nothing more. Each child writes its result into its own slot (no
// lock needed: slots are disjoint and the atomic decrement orders the final
// read); the LAST child to finish runs the merge muscle on its own thread,
// which is what makes the paper's "handler runs on the muscle's thread"
// guarantee hold for merge events too.

#include <atomic>
#include <limits>
#include <stdexcept>

#include "skel/node.hpp"

namespace askel {

class FanOutNode;

namespace detail {

struct JoinState {
  explicit JoinState(std::size_t n) : remaining(checked_count(n)), results(n) {}
  /// Written by every arriving element: on a cache line of its own, away
  /// from the fields every element only reads.
  alignas(64) std::atomic<int> remaining;
  AnyVec results;

 private:
  /// An empty fan-out has no child to ever arrive, so a JoinState for it
  /// would wait forever — fan_out runs the merge inline when the split
  /// produces zero parts and never constructs one. The check turns a silent
  /// hang into an immediate error if a future caller forgets. The upper
  /// guard keeps the size_t -> int narrowing honest.
  static int checked_count(std::size_t n) {
    if (n == 0)
      throw std::logic_error(
          "JoinState: empty fan-out — run the merge inline instead of joining");
    if (n > static_cast<std::size_t>(std::numeric_limits<int>::max()))
      throw std::length_error("JoinState: fan-out exceeds INT_MAX children");
    return static_cast<int>(n);
  }
};

/// One loop iteration's two parties: the loop, once the body's exec has
/// returned, and the body's continuation, once it has the result. Each
/// arrives once; the second to arrive runs the rest of the loop. A body that
/// completes inside its exec thus hands its result back to the loop instead
/// of recursing into the next iteration.
struct Handoff {
  std::atomic<bool> first_arrived{false};
  Any result;  // written by the continuation before it arrives
  /// True for the second caller.
  bool arrive() { return first_arrived.exchange(true, std::memory_order_acq_rel); }
};

/// The instance of `node` whose frame is `f`, from its Before-Split event to
/// its continuation: split `p`, run `node.element(i)` on part i for every
/// part (spawned in index order), then merge on the last arriver's thread
/// and pass the result to `cont`. The caller has opened `f` and emitted the
/// instance's Before-Skeleton event. A throw anywhere in an element's task,
/// listeners included, fails the run.
void fan_out(const FanOutNode& node, const CtxPtr& ctx, Frame f, Any p, Cont cont);

}  // namespace detail
}  // namespace askel
