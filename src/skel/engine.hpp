#pragma once
// Execution engine: binds a skeleton tree, a thread pool, an event bus and a
// clock, and runs inputs through the tree.

#include <memory>

#include "events/event_bus.hpp"
#include "runtime/thread_pool.hpp"
#include "skel/future.hpp"
#include "skel/node.hpp"

namespace askel {

class Engine {
 public:
  Engine(ResizableThreadPool& pool, EventBus& bus,
         const Clock* clock = &default_clock());

  /// Launch one execution of `root` on `input`. Returns immediately; the
  /// computation proceeds on the pool. The returned future completes with
  /// the result or the first exception a muscle or a listener throws.
  FuturePtr run(NodePtr root, Any input);

  /// Multi-tenant wiring: tag every task this engine launches with a
  /// coordinator tenant id. The shared pool attributes submissions to this
  /// skeleton instance AND routes them to the tenant's run queue, where the
  /// grant-weighted dispatch serves them in proportion to the coordinator's
  /// grant (real scheduling isolation, not just accounting). Takes effect
  /// for subsequent run() calls. 0 = none (untagged fast path).
  void set_tenant(int tenant) { tenant_ = tenant; }

 private:
  ResizableThreadPool& pool_;
  EventBus& bus_;
  const Clock* clock_;
  int tenant_ = 0;
};

}  // namespace askel
