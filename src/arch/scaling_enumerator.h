// The voltage-scaling enumeration of the paper's Fig. 5(a): generate
// every *unique* combination of per-core scaling levels exactly once,
// starting from the lowest voltage (all cores at the slowest level) and
// ending at nominal (all cores at level 1).
//
// Because the MPSoC is homogeneous, any permutation of a level multiset
// is equivalent (the mapper chooses which tasks land on fast cores), so
// the enumerator emits each multiset once as a non-increasing tuple.
// For C cores and L levels that is C(C+L-1, L-1) combinations — 15 for
// the paper's 4 cores / 3 levels (Fig. 5b) instead of 3^4 = 81.
#pragma once

#include "arch/scaling_table.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace seamap {

/// Per-core scaling levels; index = core id; values 1-based.
using ScalingVector = std::vector<ScalingLevel>;

/// Successor of `prev` in the Fig. 5 sequence, or nullopt after the
/// all-nominal combination. `prev` must be a valid non-increasing tuple
/// with levels in [1, level_count].
std::optional<ScalingVector> next_scaling(const ScalingVector& prev, std::size_t level_count);

/// Stateful wrapper that walks the whole sequence.
class ScalingEnumerator {
public:
    ScalingEnumerator(std::size_t core_count, std::size_t level_count);

    /// First call returns the all-slowest combination; subsequent calls
    /// walk the Fig. 5(b) sequence; nullopt when exhausted.
    std::optional<ScalingVector> next();

    /// Restart from the beginning.
    void reset();

    std::size_t core_count() const { return core_count_; }
    std::size_t level_count() const { return level_count_; }

    /// Number of combinations the sequence contains: C(C+L-1, L-1),
    /// exact. Throws seamap::Error (invalid_argument) when the count
    /// does not fit in 64 bits.
    static std::uint64_t combination_count(std::size_t core_count, std::size_t level_count);

private:
    std::size_t core_count_;
    std::size_t level_count_;
    std::optional<ScalingVector> current_;
    bool started_ = false;
};

} // namespace seamap
