#include "arch/scaling_enumerator.h"

#include "util/error.h"

#include <limits>
#include <stdexcept>
#include <string>

namespace seamap {

namespace {

void check_vector(const ScalingVector& levels, std::size_t level_count) {
    if (levels.empty()) throw std::invalid_argument("next_scaling: empty scaling vector");
    for (std::size_t i = 0; i < levels.size(); ++i) {
        if (levels[i] < 1 || levels[i] > level_count)
            throw std::invalid_argument("next_scaling: level outside [1, level_count]");
        if (i > 0 && levels[i] > levels[i - 1])
            throw std::invalid_argument("next_scaling: vector must be non-increasing");
    }
}

} // namespace

std::optional<ScalingVector> next_scaling(const ScalingVector& prev, std::size_t level_count) {
    check_vector(prev, level_count);
    // Find the rightmost core that can still speed up (level > 1);
    // speed it up one notch and drag every core to its right along to
    // the same level. This walks all non-increasing tuples in
    // descending lexicographic order — the Fig. 5(b) sequence.
    ScalingVector next = prev;
    for (std::size_t j = next.size(); j-- > 0;) {
        if (next[j] > 1) {
            const ScalingLevel value = static_cast<ScalingLevel>(next[j] - 1);
            for (std::size_t k = j; k < next.size(); ++k) next[k] = value;
            return next;
        }
    }
    return std::nullopt; // prev was all-nominal
}

ScalingEnumerator::ScalingEnumerator(std::size_t core_count, std::size_t level_count)
    : core_count_(core_count), level_count_(level_count) {
    if (core_count_ == 0) throw std::invalid_argument("ScalingEnumerator: need at least one core");
    if (level_count_ == 0 || level_count_ > 255)
        throw std::invalid_argument("ScalingEnumerator: level count must be in [1, 255]");
}

std::optional<ScalingVector> ScalingEnumerator::next() {
    if (!started_) {
        started_ = true;
        current_ = ScalingVector(core_count_, static_cast<ScalingLevel>(level_count_));
        return current_;
    }
    if (!current_) return std::nullopt;
    current_ = next_scaling(*current_, level_count_);
    return current_;
}

void ScalingEnumerator::reset() {
    started_ = false;
    current_.reset();
}

std::uint64_t ScalingEnumerator::combination_count(std::size_t core_count,
                                                   std::size_t level_count) {
    if (core_count == 0 || level_count == 0) return 0;
    // C(core_count + level_count - 1, level_count - 1), computed
    // multiplicatively: step i turns C(m - 1, i - 1) into C(m, i) with
    // m = core_count + i. The 128-bit product cannot overflow and
    // the quotient is exact; the partial values grow with i, so a step
    // past 2^64 means the count itself is unrepresentable.
    const std::uint64_t k = level_count - 1;
    std::uint64_t result = 1;
    for (std::uint64_t i = 1; i <= k; ++i) {
        const unsigned __int128 next =
            static_cast<unsigned __int128>(result) * (core_count + i) / i;
        if (next > std::numeric_limits<std::uint64_t>::max())
            throw Error(ErrorCategory::invalid_argument,
                        "ScalingEnumerator: " + std::to_string(core_count) + " cores x " +
                            std::to_string(level_count) +
                            " levels have more than 2^64 scaling combinations");
        result = static_cast<std::uint64_t>(next);
    }
    return result;
}

} // namespace seamap
