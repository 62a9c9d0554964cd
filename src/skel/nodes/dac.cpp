#include "skel/detail/join.hpp"
#include "skel/nodes.hpp"

namespace askel {

DacNode::DacNode(CondPtr fc, SplitPtr fs, NodePtr leaf, MergePtr fm)
    : FanOutNode(SkelKind::kDaC, std::move(fs), std::move(fm)),
      fc_(std::move(fc)),
      leaf_(std::move(leaf)) {}

void DacNode::exec(const CtxPtr& ctx, const Frame& parent, Any input, Cont cont) const {
  if (ctx->failed()) return;
  // Every recursion level opens a fresh dynamic instance; the depth of that
  // dynamic chain is what the paper estimates as |fc| for d&C.
  Frame f = open_frame(ctx, parent);
  Any p = ctx->emit(std::move(input), f, When::kBefore, Where::kSkeleton, -1);
  p = ctx->emit(std::move(p), f, When::kBefore, Where::kCondition, fc_->id());
  bool divide = false;
  if (!guarded(ctx, [&] { divide = fc_->invoke(p); })) return;
  p = ctx->emit(std::move(p), f, When::kAfter, Where::kCondition, fc_->id(), -1, divide);

  if (!divide) {
    // Leaf: run ∆ on this element.
    p = ctx->emit(std::move(p), f, When::kBefore, Where::kNested, -1, -1, false, 0);
    leaf_->exec(ctx, f, std::move(p), [ctx, f, cont = std::move(cont)](Any r) {
      if (ctx->failed()) return;
      r = ctx->emit(std::move(r), f, When::kAfter, Where::kNested, -1, -1, false, 0);
      r = ctx->emit(std::move(r), f, When::kAfter, Where::kSkeleton, -1);
      cont(std::move(r));
    });
    return;
  }
  detail::fan_out(*this, ctx, std::move(f), std::move(p), std::move(cont));
}

}  // namespace askel
