// Reference walker of the paper's Fig. 5(b) sequence for tests and
// benches: every non-increasing level tuple exactly once, from all
// cores at the slowest level to all at nominal, in descending
// lexicographic order. The explorer never walks the sequence this way
// (core/lazy_scaling_queue.h generates it lazily, bound-sorted); tests
// pin the queue against this walker and benches sweep with it.
#pragma once

#include "arch/scaling_enumerator.h"

#include <cstddef>
#include <optional>

namespace seamap {

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

private:
    std::size_t core_count_;
    std::size_t level_count_;
    std::optional<ScalingVector> current_;
    bool started_ = false;
};

} // namespace seamap
