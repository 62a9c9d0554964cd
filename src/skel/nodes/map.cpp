#include "skel/nodes.hpp"

namespace askel {

MapNode::MapNode(SplitPtr fs, NodePtr inner, MergePtr fm)
    : FanOutNode(SkelKind::kMap, std::move(fs), std::move(fm)), inner_(std::move(inner)) {}

}  // namespace askel
