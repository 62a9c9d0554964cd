#include <stdexcept>

#include "skel/detail/join.hpp"
#include "skel/nodes.hpp"

namespace askel {

ForNode::ForNode(int n, NodePtr body)
    : SkelNode(SkelKind::kFor), n_(n), body_(std::move(body)) {
  if (n < 0) throw std::invalid_argument("for(n, ∆): n must be >= 0");
}

void ForNode::exec(const CtxPtr& ctx, const Frame& parent, Any input, Cont cont) const {
  if (ctx->failed()) return;
  const Frame f = open_frame(ctx, parent);
  Any p = ctx->emit(std::move(input), f, When::kBefore, Where::kSkeleton, -1);
  iterate(ctx, f, n_, std::move(p), cont);
}

void ForNode::iterate(const CtxPtr& ctx, const Frame& f, int remaining, Any value,
                      const Cont& cont) const {
  for (;; --remaining) {
    if (ctx->failed()) return;
    if (remaining == 0) {
      value = ctx->emit(std::move(value), f, When::kAfter, Where::kSkeleton, -1);
      cont(std::move(value));
      return;
    }
    const int child_index = n_ - remaining;
    Any p = ctx->emit(std::move(value), f, When::kBefore, Where::kNested, -1, -1,
                      false, child_index);
    const auto step = std::make_shared<detail::Handoff>();
    body_->exec(ctx, f, std::move(p),
                [this, ctx, f, remaining, child_index, cont, step](Any r) {
      if (ctx->failed()) return;
      step->result = ctx->emit(std::move(r), f, When::kAfter, Where::kNested, -1, -1,
                               false, child_index);
      if (step->arrive()) iterate(ctx, f, remaining - 1, std::move(step->result), cont);
    });
    if (!step->arrive()) return;  // the body's continuation goes on
    value = std::move(step->result);
  }
}

}  // namespace askel
