// Small statistics toolkit used by fault-injection campaigns and
// benches: single-pass running moments (Welford), min/max tracking and
// normal-approximation confidence intervals.
#pragma once

#include <cstddef>
#include <cstdint>

namespace seamap {

/// Accumulates count/mean/variance/min/max in one pass (Welford's
/// algorithm), numerically stable for long campaigns.
class RunningStats {
public:
    void add(double x);

    std::size_t count() const { return count_; }
    double mean() const;
    /// Unbiased sample variance; 0 for fewer than two samples.
    double variance() const;
    double stdev() const;
    double min() const;
    double max() const;
    /// Standard error of the mean; 0 for fewer than two samples.
    double stderr_mean() const;
    /// Half-width of the 95% normal-approximation confidence interval
    /// on the mean.
    double ci95_halfwidth() const;

    /// Merge another accumulator into this one (parallel reduction).
    void merge(const RunningStats& other);

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Serialized state of an ExactMoments accumulator: the 128-bit sums
/// split into hi/lo 64-bit halves so checkpoints can round-trip them
/// exactly. Produced by ExactMoments::state(), consumed by
/// ExactMoments::from_state().
struct ExactMomentsState {
    std::uint64_t count = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::uint64_t sum_hi = 0;
    std::uint64_t sum_lo = 0;
    std::uint64_t sum_sq_hi = 0;
    std::uint64_t sum_sq_lo = 0;
};

/// Moment accumulator for unsigned-integer samples (per-trial SEU
/// counts) whose *state* is exact: count, sum and sum of squares are
/// 128-bit integers, so add() and merge() are associative and
/// commutative with no rounding. Any partition of a sample set into
/// shards, merged in any order, reproduces byte-identical state — and
/// the derived mean/stdev/CI are pure functions of that state, so a
/// sharded campaign's statistics are bit-identical for every thread
/// count and shard size. (RunningStats' Welford merge is deterministic
/// only for a fixed merge tree; this is the stronger guarantee the
/// campaign engine needs.) Exact while sums fit 128 bits: ~2^30 trials
/// of counts up to ~2^32 are far inside the envelope.
class ExactMoments {
public:
    void add(std::uint64_t x);

    /// Exact merge of another accumulator (integer additions only).
    void merge(const ExactMoments& other);

    std::uint64_t count() const { return count_; }
    std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
    std::uint64_t max() const { return count_ == 0 ? 0 : max_; }
    /// Exact sum of the samples (fits uint64 in every supported regime).
    std::uint64_t sum() const { return static_cast<std::uint64_t>(sum_); }
    double mean() const;
    /// Unbiased sample variance; 0 for fewer than two samples.
    double variance() const;
    double stdev() const;
    /// Standard error of the mean; 0 for fewer than two samples.
    double stderr_mean() const;
    /// Half-width of the 95% normal-approximation confidence interval
    /// on the mean (same constant as RunningStats::ci95_halfwidth).
    double ci95_halfwidth() const;

    /// Exact snapshot of the accumulator for checkpoint payloads.
    ExactMomentsState state() const;
    /// Rebuild an accumulator from a snapshot (exact inverse of state()).
    static ExactMoments from_state(const ExactMomentsState& s);

private:
    std::uint64_t count_ = 0;
    unsigned __int128 sum_ = 0;
    unsigned __int128 sum_sq_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/// Relative change of `value` vs `baseline` in percent:
/// 100 * (value - baseline) / baseline. Requires baseline != 0.
double percent_change(double value, double baseline);

} // namespace seamap
