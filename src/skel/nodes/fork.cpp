#include <stdexcept>

#include "skel/nodes.hpp"

namespace askel {

ForkNode::ForkNode(SplitPtr fs, std::vector<NodePtr> branches, MergePtr fm)
    : FanOutNode(SkelKind::kFork, std::move(fs), std::move(fm)),
      branches_(std::move(branches)) {
  if (branches_.empty())
    throw std::invalid_argument("fork(fs, {∆}, fm): needs at least one skeleton");
}

std::vector<const SkelNode*> ForkNode::children() const {
  std::vector<const SkelNode*> out;
  out.reserve(branches_.size());
  for (const NodePtr& b : branches_) out.push_back(b.get());
  return out;
}

}  // namespace askel
