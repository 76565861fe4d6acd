#include "core/lazy_scaling_queue.h"

#include "util/error.h"
#include "util/rng.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace seamap {

namespace {

/// counts[m * (level_count + 1) + w] = number of non-increasing tuples
/// of length m over values [1..w] (multisets of size m from w values,
/// C(m + w - 1, w - 1)), by the Pascal-style recurrence
/// N(m, w) = N(m, w-1) + N(m-1, w). The whole space's count is checked
/// first (seamap::Error past 2^64); every entry is N(m, w) <= N(C, L)
/// and every rank is < N(C, L), so all of this arithmetic is exact.
std::vector<std::uint64_t> multiset_counts(std::size_t core_count, std::size_t level_count) {
    (void)scaling_combination_count(core_count, level_count);
    const std::size_t width = level_count + 1;
    std::vector<std::uint64_t> counts((core_count + 1) * width, 0);
    for (std::size_t w = 0; w <= level_count; ++w) counts[w] = 1; // N(0, w) = 1
    for (std::size_t m = 1; m <= core_count; ++m)
        for (std::size_t w = 1; w <= level_count; ++w)
            counts[m * width + w] = counts[m * width + w - 1] + counts[(m - 1) * width + w];
    return counts;
}

std::uint64_t rank_with_counts(const ScalingVector& levels, std::size_t level_count,
                               const std::vector<std::uint64_t>& counts) {
    const std::size_t width = level_count + 1;
    const std::size_t n = levels.size();
    std::uint64_t rank = 0;
    std::size_t prev = level_count;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t value = levels[i];
        if (value < 1 || value > prev)
            throw std::invalid_argument(
                "LazyScalingQueue::rank_of: tuple is not non-increasing in [1, level_count]");
        // Tuples that put a larger value w at position i sort earlier
        // (descending lex); each leaves N(n-1-i, w) completions.
        for (std::size_t w = value + 1; w <= prev; ++w)
            rank += counts[(n - 1 - i) * width + w];
        prev = value;
    }
    return rank;
}

} // namespace

LazyScalingQueue::LazyScalingQueue(const TaskGraph& graph, const MpsocArchitecture& arch,
                                   double deadline_seconds, const ScalingBoundsModel* bounds,
                                   std::uint64_t successor_shuffle_seed)
    : arch_(arch), deadline_seconds_(deadline_seconds), bounds_(bounds),
      shuffle_seed_(successor_shuffle_seed), tm_(graph) {
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

std::uint64_t LazyScalingQueue::rank_of(const ScalingVector& levels, std::size_t level_count) {
    return rank_with_counts(levels, level_count, multiset_counts(levels.size(), level_count));
}

std::uint64_t LazyScalingQueue::rank_of_tabled(const ScalingVector& levels) const {
    return rank_with_counts(levels, arch_.scaling_table().level_count(), counts_);
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
    slot.rank = rank_of_tabled(levels);
    // Same accumulation loop as tm_lower_bound_seconds (max and sum in
    // core order) so the gate verdict is bit-identical to the per-call
    // form the materialized sweep evaluated.
    double fastest = 0.0;
    double total_rate = 0.0;
    for (std::size_t c = 0; c < levels.size(); ++c) {
        const double f = arch_.frequency_hz(levels[c]);
        fastest = std::max(fastest, f);
        total_rate += f;
    }
    slot.gate_passed =
        tm_.lower_bound_seconds(fastest, total_rate) <= deadline_seconds_ * (1.0 + 1e-9);
    if (slot.gate_passed && bounds_ != nullptr) {
        slot.cases = bounds_->case_bounds_for(levels);
        if (!slot.cases.empty()) node.sort_key = slot.cases.front().power_mw_lb;
    }
    slot.levels = std::move(levels);
    frontier_.push(std::move(node));
    ++generated_;
}

std::optional<LazyScalingQueue::Slot> LazyScalingQueue::pop() {
    if (frontier_.empty()) return std::nullopt;
    // priority_queue::top is const; the contents are moved out right
    // before the pop, which never observes them again.
    Slot slot = std::move(const_cast<Node&>(frontier_.top()).slot);
    frontier_.pop();
    ++popped_;

    // Expand the Fig. 5 neighbors of the popped combination. The push
    // order is irrelevant to pop order (strict (key, rank) total
    // order); a nonzero shuffle seed deterministically permutes it to
    // let tests prove exactly that, plus the dedup.
    successor_scratch_.clear();
    successors(slot.levels, successor_scratch_);
    if (shuffle_seed_ != 0 && successor_scratch_.size() > 1) {
        std::uint64_t state = splitmix64(shuffle_seed_ ^ slot.rank);
        for (std::size_t i = successor_scratch_.size() - 1; i > 0; --i) {
            state = splitmix64(state);
            std::swap(successor_scratch_[i], successor_scratch_[state % (i + 1)]);
        }
    }
    for (ScalingVector& next : successor_scratch_)
        if (visit(rank_of_tabled(next))) generate(std::move(next));
    return slot;
}

} // namespace seamap
