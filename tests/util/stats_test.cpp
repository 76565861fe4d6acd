#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace seamap {
namespace {

TEST(RunningStats, EmptyIsAllZero) {
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.stdev(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
    EXPECT_EQ(s.stderr_mean(), 0.0);
}

TEST(RunningStats, SingleValue) {
    RunningStats s;
    s.add(3.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 3.5);
    EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, KnownDataset) {
    // {2,4,4,4,5,5,7,9}: mean 5, sample variance 32/7.
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.stdev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, NumericallyStableWithLargeOffset) {
    // Welford must not cancel catastrophically around a huge mean.
    RunningStats s;
    const double offset = 1e12;
    for (double x : {offset + 1.0, offset + 2.0, offset + 3.0}) s.add(x);
    EXPECT_NEAR(s.mean(), offset + 2.0, 1e-3);
    EXPECT_NEAR(s.variance(), 1.0, 1e-6);
}

TEST(RunningStats, StderrAndCi95) {
    RunningStats s;
    for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
    const double expected_stderr = s.stdev() / 10.0;
    EXPECT_NEAR(s.stderr_mean(), expected_stderr, 1e-12);
    EXPECT_NEAR(s.ci95_halfwidth(), 1.959964 * expected_stderr, 1e-9);
}

TEST(RunningStats, MergeMatchesSequential) {
    RunningStats whole, left, right;
    for (int i = 0; i < 50; ++i) {
        const double x = std::sin(static_cast<double>(i)) * 10.0;
        whole.add(x);
        (i < 20 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-10);
    EXPECT_DOUBLE_EQ(left.min(), whole.min());
    EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptySides) {
    RunningStats a, b;
    a.add(1.0);
    a.add(3.0);
    a.merge(b); // empty rhs: unchanged
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    b.merge(a); // empty lhs: becomes rhs
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(PercentChange, BasicAndThrows) {
    EXPECT_DOUBLE_EQ(percent_change(110.0, 100.0), 10.0);
    EXPECT_DOUBLE_EQ(percent_change(62.0, 100.0), -38.0);
    EXPECT_THROW(percent_change(1.0, 0.0), std::invalid_argument);
}

TEST(ExactMoments, EmptyIsAllZero) {
    ExactMoments m;
    EXPECT_EQ(m.count(), 0u);
    EXPECT_EQ(m.sum(), 0u);
    EXPECT_EQ(m.mean(), 0.0);
    EXPECT_EQ(m.variance(), 0.0);
    EXPECT_EQ(m.stdev(), 0.0);
    EXPECT_EQ(m.stderr_mean(), 0.0);
    EXPECT_EQ(m.ci95_halfwidth(), 0.0);
}

TEST(ExactMoments, SingleValue) {
    ExactMoments m;
    m.add(7);
    EXPECT_EQ(m.count(), 1u);
    EXPECT_EQ(m.sum(), 7u);
    EXPECT_EQ(m.min(), 7u);
    EXPECT_EQ(m.max(), 7u);
    EXPECT_DOUBLE_EQ(m.mean(), 7.0);
    EXPECT_EQ(m.variance(), 0.0);
}

TEST(ExactMoments, KnownDataset) {
    // {2,4,4,4,5,5,7,9}: mean 5, sample variance 32/7.
    ExactMoments m;
    for (const std::uint64_t x : {2u, 4u, 4u, 4u, 5u, 5u, 7u, 9u}) m.add(x);
    EXPECT_EQ(m.count(), 8u);
    EXPECT_EQ(m.sum(), 40u);
    EXPECT_EQ(m.min(), 2u);
    EXPECT_EQ(m.max(), 9u);
    EXPECT_DOUBLE_EQ(m.mean(), 5.0);
    EXPECT_NEAR(m.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(m.stdev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_NEAR(m.ci95_halfwidth(), 1.959964 * m.stderr_mean(), 1e-12);
}

TEST(ExactMoments, AgreesWithRunningStatsOnIntegerData) {
    ExactMoments exact;
    RunningStats welford;
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 500; ++i) {
        x ^= x << 13, x ^= x >> 7, x ^= x << 17; // xorshift64
        const std::uint64_t sample = x % 1000;
        exact.add(sample);
        welford.add(static_cast<double>(sample));
    }
    EXPECT_EQ(exact.count(), welford.count());
    EXPECT_NEAR(exact.mean(), welford.mean(), 1e-9);
    EXPECT_NEAR(exact.variance(), welford.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(static_cast<double>(exact.min()), welford.min());
    EXPECT_DOUBLE_EQ(static_cast<double>(exact.max()), welford.max());
}

TEST(ExactMoments, MergeIsExactForAnyPartitionAndOrder) {
    // The property the sharded campaign stands on: integer state makes
    // add/merge associative AND commutative, so any shard partition in
    // any merge order reproduces the sequential accumulator exactly —
    // derived doubles included (they are pure functions of the state).
    std::vector<std::uint64_t> samples;
    std::uint64_t x = 1442695040888963407ull;
    for (int i = 0; i < 333; ++i) {
        x ^= x << 13, x ^= x >> 7, x ^= x << 17;
        samples.push_back(x % 5000);
    }
    ExactMoments sequential;
    for (const std::uint64_t s : samples) sequential.add(s);

    for (const std::size_t block : {1u, 7u, 64u, 333u, 1000u}) {
        std::vector<ExactMoments> shards;
        for (std::size_t lo = 0; lo < samples.size(); lo += block) {
            ExactMoments shard;
            for (std::size_t i = lo; i < std::min(lo + block, samples.size()); ++i)
                shard.add(samples[i]);
            shards.push_back(shard);
        }
        // Forward merge order...
        ExactMoments forward;
        for (const ExactMoments& shard : shards) forward.merge(shard);
        // ...and reverse merge order must both match exactly.
        ExactMoments reverse;
        for (auto it = shards.rbegin(); it != shards.rend(); ++it) reverse.merge(*it);
        for (const ExactMoments* merged : {&forward, &reverse}) {
            EXPECT_EQ(merged->count(), sequential.count()) << "block " << block;
            EXPECT_EQ(merged->sum(), sequential.sum()) << "block " << block;
            EXPECT_EQ(merged->min(), sequential.min()) << "block " << block;
            EXPECT_EQ(merged->max(), sequential.max()) << "block " << block;
            EXPECT_DOUBLE_EQ(merged->mean(), sequential.mean()) << "block " << block;
            EXPECT_DOUBLE_EQ(merged->variance(), sequential.variance())
                << "block " << block;
            EXPECT_DOUBLE_EQ(merged->ci95_halfwidth(), sequential.ci95_halfwidth())
                << "block " << block;
        }
    }
}

TEST(ExactMoments, MergeWithEmptySides) {
    ExactMoments a, b;
    a.add(1);
    a.add(3);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_EQ(b.min(), 1u);
    EXPECT_EQ(b.max(), 3u);
}

} // namespace
} // namespace seamap
