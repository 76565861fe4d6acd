// The voltage-scaling space of the paper's Fig. 5(a): every *unique*
// combination of per-core scaling levels, walked from the lowest
// voltage (all cores at the slowest level) to nominal (all cores at
// level 1).
//
// Because the MPSoC is homogeneous, any permutation of a level multiset
// is equivalent (the mapper chooses which tasks land on fast cores), so
// each multiset is one non-increasing tuple. For C cores and L levels
// that is C(C+L-1, L-1) combinations — 15 for the paper's 4 cores / 3
// levels (Fig. 5b) instead of 3^4 = 81. The explorer generates them
// lazily (core/lazy_scaling_queue.h); tests and benches walk them with
// the reference walker in tests/support/scaling_walker.h.
#pragma once

#include "arch/scaling_table.h"

#include <cstdint>
#include <vector>

namespace seamap {

/// Per-core scaling levels; index = core id; values 1-based.
using ScalingVector = std::vector<ScalingLevel>;

/// Number of combinations the Fig. 5 sequence contains:
/// C(C+L-1, L-1), exact; 0 when either count is 0. Throws
/// seamap::Error (invalid_argument) when the count does not fit in 64
/// bits.
std::uint64_t scaling_combination_count(std::size_t core_count, std::size_t level_count);

} // namespace seamap
