#include "core/lazy_scaling_queue.h"

#include "util/error.h"

#include <algorithm>
#include <string>

namespace seamap {

namespace {

/// counts[m * (level_count + 1) + w] = number of non-increasing tuples
/// of length m over values [1..w] (multisets of size m from w values,
/// C(m + w - 1, w - 1)), by the Pascal-style recurrence
/// N(m, w) = N(m, w-1) + N(m-1, w). The caller has checked that N(C, L)
/// fits in 64 bits; every entry is N(m, w) <= N(C, L) and every rank is
/// < N(C, L), so all of this arithmetic is exact.
std::vector<std::uint64_t> multiset_counts(std::size_t core_count, std::size_t level_count) {
    const std::size_t width = level_count + 1;
    std::vector<std::uint64_t> counts((core_count + 1) * width, 0);
    for (std::size_t w = 0; w <= level_count; ++w) counts[w] = 1; // N(0, w) = 1
    for (std::size_t m = 1; m <= core_count; ++m)
        for (std::size_t w = 1; w <= level_count; ++w)
            counts[m * width + w] = counts[m * width + w - 1] + counts[(m - 1) * width + w];
    return counts;
}

} // namespace

LazyScalingQueue::LazyScalingQueue(const TaskGraph& graph, const MpsocArchitecture& arch,
                                   double deadline_seconds, const ScalingBoundsModel* bounds)
    : arch_(arch), deadline_seconds_(deadline_seconds), bounds_(bounds), tm_(graph) {
    const std::size_t cores = arch.core_count();
    const std::size_t levels = arch.scaling_table().level_count();
    // The rank table takes (cores + 1) x (levels + 1) words and the
    // visited bitmap one bit per combination: refuse a space whose
    // tables would pass 1 GiB (2^27 words) before allocating either.
    const std::uint64_t total = scaling_combination_count(cores, levels);
    const unsigned __int128 table_words =
        (static_cast<unsigned __int128>(cores) + 1) * (levels + 1) + total / 64 + 1;
    if (table_words > (std::uint64_t{1} << 27))
        throw Error(ErrorCategory::invalid_argument,
                    "LazyScalingQueue: " + std::to_string(cores) + " cores x " +
                        std::to_string(levels) + " levels have " + std::to_string(total) +
                        " scaling combinations; their rank table and visited bitmap would "
                        "need over 1 GiB");
    counts_ = multiset_counts(cores, levels);
    total_ = counts_.back(); // N(C, L)
    visited_.assign((total_ + 63) / 64, 0);

    ScalingVector root(cores, static_cast<ScalingLevel>(levels));
    arch.validate_scaling(root);
    visit(0);
    generate(std::move(root));
}

std::uint64_t LazyScalingQueue::rank_of(const ScalingVector& levels) const {
    const std::size_t width = arch_.scaling_table().level_count() + 1;
    const std::size_t n = levels.size();
    std::uint64_t rank = 0;
    std::size_t prev = width - 1;
    for (std::size_t i = 0; i < n; ++i) {
        // Tuples that put a larger value w at position i sort earlier
        // (descending lex); each leaves N(n-1-i, w) completions.
        for (std::size_t w = levels[i] + 1; w <= prev; ++w)
            rank += counts_[(n - 1 - i) * width + w];
        prev = levels[i];
    }
    return rank;
}

void LazyScalingQueue::successors(const ScalingVector& levels, std::vector<ScalingVector>& out) {
    const std::size_t n = levels.size();
    for (std::size_t i = 0; i < n; ++i) {
        // The rightmost occurrence of each distinct value > 1: the only
        // position where decrementing that value keeps the tuple
        // non-increasing (the next entry, if any, is strictly smaller).
        if (levels[i] <= 1) continue;
        if (i + 1 < n && levels[i + 1] == levels[i]) continue;
        ScalingVector next = levels;
        --next[i];
        out.push_back(std::move(next));
    }
}

bool LazyScalingQueue::visit(std::uint64_t rank) {
    std::uint64_t& word = visited_[rank / 64];
    const std::uint64_t bit = std::uint64_t{1} << (rank % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
}

void LazyScalingQueue::generate(ScalingVector levels) {
    Node node;
    Slot& slot = node.slot;
    slot.rank = rank_of(levels);
    slot.gate_passed =
        tm_.lower_bound_seconds(arch_, levels) <= deadline_seconds_ * (1.0 + 1e-9);
    if (slot.gate_passed && bounds_ != nullptr) {
        slot.cases = bounds_->case_bounds_for(levels);
        if (!slot.cases.empty()) node.sort_key = slot.cases.front().power_mw_lb;
    }
    slot.levels = std::move(levels);
    frontier_.push_back(std::move(node));
    std::push_heap(frontier_.begin(), frontier_.end(), NodeAfter{});
    ++generated_;
}

std::optional<LazyScalingQueue::Slot> LazyScalingQueue::pop() {
    if (frontier_.empty()) return std::nullopt;
    std::pop_heap(frontier_.begin(), frontier_.end(), NodeAfter{});
    Slot slot = std::move(frontier_.back().slot);
    frontier_.pop_back();
    ++popped_;

    // Expand the Fig. 5 neighbors of the popped combination. The push
    // order is irrelevant to pop order (strict (key, rank) total order).
    successor_scratch_.clear();
    successors(slot.levels, successor_scratch_);
    for (ScalingVector& next : successor_scratch_)
        if (visit(rank_of(next))) generate(std::move(next));
    return slot;
}

} // namespace seamap
