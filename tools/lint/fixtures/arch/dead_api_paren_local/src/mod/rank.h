#pragma once

#include <cstddef>

namespace fx {

/// Never called: the local vector named `rank_of` below is constructed
/// with parentheses, which declares a variable, not a call, so the rule
/// fires.
std::size_t rank_of(std::size_t index);

std::size_t total_rank(std::size_t count);

} // namespace fx
