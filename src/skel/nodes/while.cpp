#include "skel/detail/join.hpp"
#include "skel/nodes.hpp"

namespace askel {

WhileNode::WhileNode(CondPtr fc, NodePtr body)
    : SkelNode(SkelKind::kWhile), fc_(std::move(fc)), body_(std::move(body)) {}

void WhileNode::exec(const CtxPtr& ctx, const Frame& parent, Any input, Cont cont) const {
  if (ctx->failed()) return;
  const Frame f = open_frame(ctx, parent);
  Any p = ctx->emit(std::move(input), f, When::kBefore, Where::kSkeleton, -1);
  iterate(ctx, f, std::move(p), cont);
}

void WhileNode::iterate(const CtxPtr& ctx, const Frame& f, Any value,
                        const Cont& cont) const {
  for (;;) {
    if (ctx->failed()) return;
    Any p = ctx->emit(std::move(value), f, When::kBefore, Where::kCondition, fc_->id());
    bool go = false;
    if (!guarded(ctx, [&] { go = fc_->invoke(p); })) return;
    p = ctx->emit(std::move(p), f, When::kAfter, Where::kCondition, fc_->id(), -1, go);
    if (!go) {
      p = ctx->emit(std::move(p), f, When::kAfter, Where::kSkeleton, -1);
      cont(std::move(p));
      return;
    }
    p = ctx->emit(std::move(p), f, When::kBefore, Where::kNested, -1, -1, false, 0);
    const auto step = std::make_shared<detail::Handoff>();
    body_->exec(ctx, f, std::move(p), [this, ctx, f, cont, step](Any r) {
      if (ctx->failed()) return;
      step->result =
          ctx->emit(std::move(r), f, When::kAfter, Where::kNested, -1, -1, false, 0);
      if (step->arrive()) iterate(ctx, f, std::move(step->result), cont);
    });
    if (!step->arrive()) return;  // the body's continuation goes on
    value = std::move(step->result);
  }
}

}  // namespace askel
