#include "skel/detail/join.hpp"

#include "skel/nodes.hpp"

namespace askel::detail {
namespace {

/// One fan-out instance from its split on. Every element's task and
/// continuation hold a shared_ptr to it, so the last handle to go frees it:
/// the merging element's continuation on success, or whichever task or
/// continuation a failed run drops last. alignas(64) makes make_shared put
/// the control block (the handles' reference count) on the cache line before
/// the record, and JoinState puts the arrival counter on one after it; the
/// fields between them are written only before the first element is spawned.
struct alignas(64) Record {
  Record(const FanOutNode& node, CtxPtr ctx, Frame frame, Cont cont, AnyVec parts)
      : node(node),
        ctx(std::move(ctx)),
        frame(std::move(frame)),
        cont(std::move(cont)),
        parts(std::move(parts)),
        join(this->parts.size()) {}

  const FanOutNode& node;
  const CtxPtr ctx;
  const Frame frame;
  const Cont cont;
  AnyVec parts;  // element i moves part i out when it starts
  JoinState join;
};
using RecordPtr = std::shared_ptr<Record>;

void merge(const FanOutNode& node, const CtxPtr& ctx, const Frame& f,
           const Cont& cont, AnyVec results) {
  const int fm = node.fm().id();
  Any mv = ctx->emit(Any(std::move(results)), f, When::kBefore, Where::kMerge, fm);
  AnyVec rv;
  if (!guarded(ctx, [&] { rv = std::any_cast<AnyVec>(std::move(mv)); })) return;
  Any r;
  if (!guarded(ctx, [&] { r = node.fm().invoke(std::move(rv)); })) return;
  r = ctx->emit(std::move(r), f, When::kAfter, Where::kMerge, fm);
  r = ctx->emit(std::move(r), f, When::kAfter, Where::kSkeleton, -1);
  cont(std::move(r));
}

void run_element(const RecordPtr& rec, std::size_t i) {
  const CtxPtr& ctx = rec->ctx;
  if (ctx->failed()) return;
  Any q = ctx->emit(std::move(rec->parts[i]), rec->frame, When::kBefore,
                    Where::kNested, -1, -1, false, static_cast<int>(i));
  rec->node.element(i).exec(ctx, rec->frame, std::move(q), [rec, i](Any r) {
    const CtxPtr& ctx = rec->ctx;
    if (ctx->failed()) return;
    r = ctx->emit(std::move(r), rec->frame, When::kAfter, Where::kNested, -1, -1,
                  false, static_cast<int>(i));
    JoinState& join = rec->join;
    join.results[i] = std::move(r);
    if (join.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      merge(rec->node, ctx, rec->frame, rec->cont, std::move(join.results));
    }
  });
}

}  // namespace

void fan_out(const FanOutNode& node, const CtxPtr& ctx, Frame f, Any p, Cont cont) {
  const int fs = node.fs().id();
  p = ctx->emit(std::move(p), f, When::kBefore, Where::kSplit, fs);
  AnyVec parts;
  if (!guarded(ctx, [&] { parts = node.fs().invoke(std::move(p)); })) return;
  const int card = static_cast<int>(parts.size());
  Any pv = ctx->emit(Any(std::move(parts)), f, When::kAfter, Where::kSplit, fs, card);
  if (!guarded(ctx, [&] { parts = std::any_cast<AnyVec>(std::move(pv)); })) return;

  if (parts.empty()) {
    merge(node, ctx, f, cont, AnyVec{});
    return;
  }
  const std::size_t n = parts.size();
  const auto rec = std::make_shared<Record>(node, ctx, std::move(f), std::move(cont),
                                            std::move(parts));
  for (std::size_t i = 0; i < n; ++i) {
    ctx->spawn([rec, i] { guarded(rec->ctx, [&] { run_element(rec, i); }); });
  }
}

}  // namespace askel::detail

namespace askel {

void FanOutNode::exec(const CtxPtr& ctx, const Frame& parent, Any input,
                      Cont cont) const {
  if (ctx->failed()) return;
  Frame f = open_frame(ctx, parent);
  // The eight Map events of the paper: @b, @bs, @as, per-element @b/@a nested,
  // @bm, @am, @a — all sharing the instance index f.exec_id.
  Any p = ctx->emit(std::move(input), f, When::kBefore, Where::kSkeleton, -1);
  detail::fan_out(*this, ctx, std::move(f), std::move(p), std::move(cont));
}

}  // namespace askel
