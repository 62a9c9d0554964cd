#pragma once
// Helpers for rendering dynamic skeleton traces (the `st` array of the
// paper's Listing 2 logger).

#include <span>
#include <string>

#include "events/event.hpp"

namespace askel {

/// "map/map/seq"-style rendering of a trace.
std::string to_string(std::span<const SkelNode* const> trace);

}  // namespace askel
