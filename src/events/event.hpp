#pragma once
// Event vocabulary of the skeleton framework (paper §3).
//
// Events are emitted synchronously by the execution engine around every
// muscle invocation, ON THE SAME THREAD as the muscle ("it is guaranteed that
// the handler is executed on the same thread than the related muscle").
// The notation in the paper is `∆@when(info)`, e.g. `map(fs,∆,fm)@as(i,
// fsCard)` = Map After Split with the instance index i and the observed split
// cardinality.
//
// Every dynamic skeleton instance gets a unique index `i` (exec_id here); all
// events of one instance share it, which is how Before/After pairs and state
// machines correlate (the `[idx == i]` guards of Figures 3 and 4).

#include <any>
#include <cstdint>
#include <span>
#include <string>

#include "util/clock.hpp"

namespace askel {

class SkelNode;  // defined in skel/node.hpp; events never dereference it

/// Before or after the thing named by `Where`.
enum class When : std::uint8_t { kBefore, kAfter };

/// Which part of the skeleton the event surrounds.
enum class Where : std::uint8_t {
  kSkeleton,   // whole-skeleton begin/end
  kSplit,      // split muscle fs
  kMerge,      // merge muscle fm
  kCondition,  // condition muscle fc
  kNested,     // a nested skeleton element (map/fork child, pipe stage, ...)
  kExecute,    // execution muscle fe (seq)
};

std::string to_string(When w);
std::string to_string(Where w);

/// One event occurrence, passed to listeners by reference; the partial
/// solution travels separately (by value) so listeners can replace it.
struct Event {
  When when = When::kBefore;
  Where where = Where::kSkeleton;
  /// Unique id of the dynamic skeleton instance this event belongs to
  /// (the paper's `i`).
  std::int64_t exec_id = -1;
  /// exec_id of the enclosing dynamic instance, or -1 at the root. This is
  /// how the tracker layer reconstructs the dynamic nesting tree.
  std::int64_t parent_exec_id = -1;
  /// Static node emitting the event.
  const SkelNode* node = nullptr;
  /// Id of the muscle about to run / having run, or -1 for kSkeleton/kNested.
  int muscle_id = -1;
  /// Engine-clock timestamp.
  TimePoint timestamp = 0.0;
  /// Dynamic call-stack of skeleton nodes root→current (the `Skeleton[] st`
  /// parameter of Skandium's generic listener), borrowed from the emitting
  /// frame: valid only while the event is being dispatched. A listener that
  /// keeps it must copy it (or render it with `to_string`) inside `handle`.
  std::span<const SkelNode* const> trace;

  // --- event-specific extras -------------------------------------------
  /// kSplit/kAfter: number of sub-problems produced (the paper's fsCard).
  int cardinality = -1;
  /// kCondition/kAfter: the condition muscle's result.
  bool condition_result = false;
  /// kNested: zero-based index of the child element within its parent.
  int child_index = -1;
};

}  // namespace askel
