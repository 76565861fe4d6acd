#include "support/scaling_walker.h"

#include <stdexcept>

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
    if (core_count_ == 0)
        throw std::invalid_argument("ScalingEnumerator: need at least one core");
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

} // namespace seamap
