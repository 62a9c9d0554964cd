#include "skel/engine.hpp"

namespace askel {

Engine::Engine(ResizableThreadPool& pool, EventBus& bus, const Clock* clock)
    : pool_(pool), bus_(bus), clock_(clock) {}

FuturePtr Engine::run(NodePtr root, Any input) {
  auto state = std::make_shared<FutureState>();
  auto ctx = std::make_shared<ExecContext>(pool_, bus_, *clock_, tenant_);
  ctx->complete = [state](Any r) { state->set_value(std::move(r)); };
  ctx->complete_error = [state](std::exception_ptr e) { state->set_error(e); };

  // The final continuation captures `root`, keeping the whole immutable tree
  // alive for as long as any in-flight task can still reach it.
  Cont done = [ctx, root](Any r) { ctx->complete(std::move(r)); };
  ctx->spawn([ctx, root, input = std::move(input), done = std::move(done)]() mutable {
    const Frame top;  // empty trace, exec_id -1: the root's parent frame
    guarded(ctx, [&] { root->exec(ctx, top, std::move(input), std::move(done)); });
  });
  return state;
}

}  // namespace askel
