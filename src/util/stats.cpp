#include "util/stats.h"

#include "util/float_compare.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace seamap {

void RunningStats::add(double x) {
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
    if (count_ < 2) return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stdev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return count_ == 0 ? 0.0 : min_; }

double RunningStats::max() const { return count_ == 0 ? 0.0 : max_; }

double RunningStats::stderr_mean() const {
    if (count_ < 2) return 0.0;
    return stdev() / std::sqrt(static_cast<double>(count_));
}

double RunningStats::ci95_halfwidth() const { return 1.959964 * stderr_mean(); }

void RunningStats::merge(const RunningStats& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double n1 = static_cast<double>(count_);
    const double n2 = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double n = n1 + n2;
    mean_ += delta * n2 / n;
    m2_ += other.m2_ + delta * delta * n1 * n2 / n;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void ExactMoments::add(std::uint64_t x) {
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    sum_sq_ += static_cast<unsigned __int128>(x) * x;
}

void ExactMoments::merge(const ExactMoments& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    count_ += other.count_;
    sum_ += other.sum_;
    sum_sq_ += other.sum_sq_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double ExactMoments::mean() const {
    if (count_ == 0) return 0.0;
    return static_cast<double>(sum_) / static_cast<double>(count_);
}

double ExactMoments::variance() const {
    if (count_ < 2) return 0.0;
    // n * sum_sq - sum^2 is exact in 128-bit arithmetic for every
    // supported campaign size; the single division happens in double.
    const unsigned __int128 n = count_;
    const unsigned __int128 scaled_sq = n * sum_sq_;
    const unsigned __int128 sum_squared = sum_ * sum_;
    if (scaled_sq <= sum_squared) return 0.0; // constant samples
    const double numerator = static_cast<double>(scaled_sq - sum_squared);
    return numerator /
           (static_cast<double>(count_) * static_cast<double>(count_ - 1));
}

double ExactMoments::stdev() const { return std::sqrt(variance()); }

double ExactMoments::stderr_mean() const {
    if (count_ < 2) return 0.0;
    return stdev() / std::sqrt(static_cast<double>(count_));
}

double ExactMoments::ci95_halfwidth() const { return 1.959964 * stderr_mean(); }

namespace {

unsigned __int128 u128_of_halves(std::uint64_t hi, std::uint64_t lo) {
    return (static_cast<unsigned __int128>(hi) << 64) | lo;
}

} // namespace

ExactMomentsState ExactMoments::state() const {
    ExactMomentsState s;
    s.count = count_;
    s.min = min_;
    s.max = max_;
    s.sum_hi = static_cast<std::uint64_t>(sum_ >> 64);
    s.sum_lo = static_cast<std::uint64_t>(sum_);
    s.sum_sq_hi = static_cast<std::uint64_t>(sum_sq_ >> 64);
    s.sum_sq_lo = static_cast<std::uint64_t>(sum_sq_);
    return s;
}

ExactMoments ExactMoments::from_state(const ExactMomentsState& s) {
    ExactMoments m;
    m.count_ = s.count;
    m.min_ = s.min;
    m.max_ = s.max;
    m.sum_ = u128_of_halves(s.sum_hi, s.sum_lo);
    m.sum_sq_ = u128_of_halves(s.sum_sq_hi, s.sum_sq_lo);
    return m;
}

double percent_change(double value, double baseline) {
    if (exactly_zero(baseline))
        throw std::invalid_argument("percent_change: baseline must be nonzero");
    return 100.0 * (value - baseline) / baseline;
}

} // namespace seamap
