#include "skel/node.hpp"

#include <unordered_set>

#include "skel/trace.hpp"

namespace askel {
namespace {

int next_node_id() {
  static std::atomic<int> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::string to_string(SkelKind k) {
  switch (k) {
    case SkelKind::kSeq: return "seq";
    case SkelKind::kFarm: return "farm";
    case SkelKind::kPipe: return "pipe";
    case SkelKind::kWhile: return "while";
    case SkelKind::kFor: return "for";
    case SkelKind::kIf: return "if";
    case SkelKind::kMap: return "map";
    case SkelKind::kFork: return "fork";
    case SkelKind::kDaC: return "dac";
  }
  return "?";
}

std::string to_string(std::span<const SkelNode* const> trace) {
  std::string out;
  for (const SkelNode* n : trace) {
    if (!out.empty()) out += '/';
    out += n ? n->name() : std::string("?");
  }
  return out;
}

ExecContext::ExecContext(ResizableThreadPool& pool, EventBus& bus,
                         const Clock& clock, int tenant)
    : pool_(pool), bus_(bus), clock_(clock), tenant_(tenant) {}

std::int64_t ExecContext::new_exec_id() {
  static std::atomic<std::int64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

Any ExecContext::emit(Any param, const Frame& f, When when, Where where,
                      int muscle_id, int cardinality, bool condition_result,
                      int child_index) {
  Event ev;
  ev.when = when;
  ev.where = where;
  ev.exec_id = f.exec_id;
  ev.parent_exec_id = f.parent_exec_id;
  ev.node = f.trace.empty() ? nullptr : f.trace.back();
  ev.muscle_id = muscle_id;
  ev.timestamp = clock_.now();
  ev.trace = f.trace;
  ev.cardinality = cardinality;
  ev.condition_result = condition_result;
  ev.child_index = child_index;
  return bus_.dispatch(std::move(param), ev);
}

void ExecContext::fail(std::exception_ptr e) {
  failed_.store(true, std::memory_order_release);
  if (!error_delivered_.exchange(true, std::memory_order_acq_rel)) {
    if (complete_error) complete_error(e);
  }
}

SkelNode::SkelNode(SkelKind kind) : kind_(kind), id_(next_node_id()) {}

Frame SkelNode::open_frame(const CtxPtr& ctx, const Frame& parent) const {
  Frame f;
  f.trace.reserve(parent.trace.size() + 1);
  f.trace.assign(parent.trace.begin(), parent.trace.end());
  f.trace.push_back(this);
  f.exec_id = ctx->new_exec_id();
  f.parent_exec_id = parent.exec_id;
  return f;
}

std::size_t tree_size(const SkelNode& root) {
  std::size_t n = 1;
  for (const SkelNode* c : root.children()) n += tree_size(*c);
  return n;
}

std::vector<const Muscle*> tree_muscles(const SkelNode& root) {
  std::vector<const Muscle*> out;
  std::unordered_set<int> seen;
  const std::function<void(const SkelNode&)> walk = [&](const SkelNode& n) {
    for (const Muscle* m : n.muscles()) {
      if (seen.insert(m->id()).second) out.push_back(m);
    }
    for (const SkelNode* c : n.children()) walk(*c);
  };
  walk(root);
  return out;
}

}  // namespace askel
