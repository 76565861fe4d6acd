#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <set>
#include <span>
#include <vector>

namespace seamap {
namespace {

TEST(Splitmix64, MatchesReferenceVectors) {
    // First output of the public-domain splitmix64 reference stream
    // when seeded with 0 and 1 respectively.
    EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(splitmix64(1), 0x910a2dec89025cc1ULL);
    // Regression pin for seed 2 (computed with this implementation,
    // which the two reference vectors above validate).
    EXPECT_EQ(splitmix64(2), 0x975835de1c9756ceULL);
}

TEST(Rng, SameSeedSameSequence) {
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next_u64() == b.next_u64()) ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Rng, ConsecutiveSmallSeedsDecorrelated) {
    // Seeds 0 and 1 must not produce near-identical streams (seed mixing).
    Rng a(0), b(1);
    EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(7);
    for (int i = 0; i < 10'000; ++i) {
        const double x = rng.uniform();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, UniformRangeRespected) {
    Rng rng(7);
    for (int i = 0; i < 1'000; ++i) {
        const double x = rng.uniform(-3.0, 5.0);
        EXPECT_GE(x, -3.0);
        EXPECT_LT(x, 5.0);
    }
}

TEST(Rng, UniformInvalidRangeThrows) {
    Rng rng(7);
    EXPECT_THROW(rng.uniform(1.0, 0.0), std::invalid_argument);
    EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, UniformIntCoversClosedRange) {
    Rng rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2'000; ++i) {
        const std::int64_t x = rng.uniform_int(1, 6);
        EXPECT_GE(x, 1);
        EXPECT_LE(x, 6);
        seen.insert(x);
    }
    EXPECT_EQ(seen.size(), 6u); // all faces of the die appear
}

TEST(Rng, UniformIntDegenerateRange) {
    Rng rng(3);
    EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, ExponentialMeanApproximate) {
    Rng rng(13);
    double sum = 0.0;
    const int n = 50'000;
    for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
    EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, ExponentialRequiresPositiveMean) {
    Rng rng(13);
    EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
    EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, PoissonZeroMeanIsZero) {
    Rng rng(17);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, PoissonRejectsBadMean) {
    Rng rng(17);
    EXPECT_THROW(rng.poisson(-1.0), std::invalid_argument);
    EXPECT_THROW(rng.poisson(std::numeric_limits<double>::infinity()), std::invalid_argument);
}

TEST(Rng, PoissonMeanAndVarianceApproximate) {
    Rng rng(19);
    const double mean = 100.0;
    const int n = 20'000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = static_cast<double>(rng.poisson(mean));
        sum += x;
        sum_sq += x * x;
    }
    const double sample_mean = sum / n;
    const double sample_var = sum_sq / n - sample_mean * sample_mean;
    EXPECT_NEAR(sample_mean, mean, 0.5);      // ~7 sigma of the mean estimator
    EXPECT_NEAR(sample_var, mean, mean * 0.1);
}

TEST(Rng, PoissonHugeMeanUsesNormalApproximation) {
    Rng rng(23);
    const double mean = 1e12;
    const double draw = static_cast<double>(rng.poisson(mean));
    // Within 10 standard deviations (sigma = 1e6).
    EXPECT_NEAR(draw, mean, 1e7);
}

TEST(Rng, NormalMomentsApproximate) {
    Rng rng(29);
    const int n = 50'000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sum_sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, SeedAccessorReturnsOriginalSeed) {
    Rng rng(12345);
    EXPECT_EQ(rng.seed(), 12345u);
}

TEST(Rng, ForkAtIsOrderInvariant) {
    // fork_at() must not depend on the parent's draw position: a fresh
    // parent and one that has drawn and forked_at in arbitrary order
    // must hand out identical fork_at children.
    Rng pristine(101);
    Rng busy(101);
    for (int i = 0; i < 37; ++i) busy.next_u64();
    (void)busy.fork_at(9);
    (void)busy.poisson(42.0);
    Rng child_a = pristine.fork_at(7);
    Rng child_b = busy.fork_at(7);
    for (int i = 0; i < 32; ++i) EXPECT_EQ(child_a.next_u64(), child_b.next_u64());
}

TEST(Rng, ForkAtIsConstAndRepeatable) {
    const Rng parent(55);
    Rng first = parent.fork_at(4);
    Rng second = parent.fork_at(4);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(first.next_u64(), second.next_u64());
}

TEST(Rng, ForkAtChildrenAreIndependent) {
    const Rng parent(202);
    Rng child_a = parent.fork_at(0);
    Rng child_b = parent.fork_at(1);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (child_a.next_u64() == child_b.next_u64()) ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Rng, ForkAtDistinctFromParent) {
    Rng parent(303);
    Rng child = parent.fork_at(0);
    EXPECT_NE(child.next_u64(), parent.next_u64());
}

TEST(Rng, ForkAtDiffersAcrossSeeds) {
    const Rng a(1), b(2);
    Rng child_a = a.fork_at(5);
    Rng child_b = b.fork_at(5);
    EXPECT_NE(child_a.next_u64(), child_b.next_u64());
}

// --- Poisson behaviour at the 2^31 normal-approximation cutover ---

constexpr double k_poisson_cutover = static_cast<double>(1LL << 31);

TEST(Rng, PoissonDeterministicOnBothSidesOfCutover) {
    const double below = k_poisson_cutover * 0.5;
    const double above = k_poisson_cutover * 2.0;
    Rng a(404), b(404);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(a.poisson(below), b.poisson(below));
    for (int i = 0; i < 8; ++i) EXPECT_EQ(a.poisson(above), b.poisson(above));
}

TEST(Rng, PoissonMeanContinuousAcrossCutover) {
    // The exact branch just below the cutover and the normal branch just
    // at it target means one count apart; the sample means must agree
    // within the joint sampling error (sigma ~ sqrt(mean) ~ 46341, so
    // stderr with n=400 is ~2.3e3 per side; allow 5 joint sigma).
    const double below = k_poisson_cutover - 1.0;
    const double above = k_poisson_cutover;
    const int n = 400;
    Rng rng(505);
    double sum_below = 0.0, sum_above = 0.0;
    for (int i = 0; i < n; ++i) sum_below += static_cast<double>(rng.poisson(below));
    for (int i = 0; i < n; ++i) sum_above += static_cast<double>(rng.poisson(above));
    const double mean_below = sum_below / n;
    const double mean_above = sum_above / n;
    const double joint_sigma = std::sqrt(2.0 * k_poisson_cutover / n);
    EXPECT_NEAR(mean_above - mean_below, 1.0, 5.0 * joint_sigma);
    // And each side is individually where it should be.
    EXPECT_NEAR(mean_below, below, 5.0 * std::sqrt(below / n));
    EXPECT_NEAR(mean_above, above, 5.0 * std::sqrt(above / n));
}

TEST(Rng, PoissonDrawsStayNearMeanAtCutover) {
    Rng rng(606);
    for (const double mean : {k_poisson_cutover - 1.0, k_poisson_cutover}) {
        for (int i = 0; i < 16; ++i) {
            const double draw = static_cast<double>(rng.poisson(mean));
            EXPECT_NEAR(draw, mean, 10.0 * std::sqrt(mean));
        }
    }
}

TEST(Rng, PoissonMatchesStdDistributionDrawForDraw) {
    // Below the 2^31 cutover Rng::poisson takes the draw a fresh
    // std::poisson_distribution<long long> takes from Rng's engine
    // (std::mt19937_64 seeded with splitmix64(seed)): the same value and
    // the same engine draws, so the streams stay in step. The means
    // cover the product-of-uniforms branch (< 12), its edge, Devroye's
    // rejection branch (>= 12) from 12 up to the campaign's ~2e5 hits per
    // trial, and just below the cutover. The reference is libstdc++'s
    // algorithm; another standard library draws differently.
#ifndef __GLIBCXX__
    GTEST_SKIP() << "the reference draw is libstdc++'s";
#endif
    const double means[] = {1e-9, 1e-4, 0.25, 1.0, 5.5, 11.999999, 12.0, 12.5, 37.3, 100.0,
                            1e3, 2.05e5, 1e7, 1e9, k_poisson_cutover * (1.0 - 1e-12),
                            k_poisson_cutover - 1.0};
    for (const std::uint64_t seed : {1ULL, 2ULL, 404ULL, 0xfeedfaceULL}) {
        for (const double mean : means) {
            Rng rng(seed);
            std::mt19937_64 engine(splitmix64(seed));
            for (int i = 0; i < 300; ++i) {
                std::poisson_distribution<long long> dist(mean);
                const long long expected = dist(engine);
                ASSERT_EQ(rng.poisson(mean), static_cast<std::uint64_t>(expected))
                    << "seed " << seed << " mean " << mean << " draw " << i;
            }
            EXPECT_EQ(rng.next_u64(), engine()) << "seed " << seed << " mean " << mean;
        }
        // Means mixed within one stream, as a campaign trial draws them:
        // no state carries over from one draw to the next.
        Rng rng(seed);
        std::mt19937_64 engine(splitmix64(seed));
        for (int i = 0; i < 2000; ++i) {
            const double mean = means[static_cast<std::size_t>(i * 7) % std::size(means)];
            std::poisson_distribution<long long> dist(mean);
            ASSERT_EQ(rng.poisson(mean), static_cast<std::uint64_t>(dist(engine)))
                << "seed " << seed << " draw " << i;
        }
        EXPECT_EQ(rng.next_u64(), engine()) << "seed " << seed;
    }
}

// The Rng seed whose splitmix64 mix is `mixed`, so a test can seed the
// engine with any word. splitmix64 is a bijection: undo each
// xor-shift and multiply (by the multiplier's inverse mod 2^64).
std::uint64_t unmix_splitmix64(std::uint64_t mixed) {
    auto inverse = [](std::uint64_t a) {
        std::uint64_t inv = a; // Newton's iteration doubles the correct low bits
        for (int i = 0; i < 5; ++i) inv *= 2 - a * inv;
        return inv;
    };
    std::uint64_t x = mixed;
    x ^= (x >> 31) ^ (x >> 62);
    x *= inverse(0x94d049bb133111ebULL);
    x ^= (x >> 27) ^ (x >> 54);
    x *= inverse(0xbf58476d1ce4e5b9ULL);
    x ^= (x >> 30) ^ (x >> 60);
    return x - 0x9e3779b97f4a7c15ULL;
}

TEST(Rng, EngineMatchesStdMt19937_64) {
    // Rng's engine twists each state word just before it is read; its
    // output must be std::mt19937_64's, across several whole twists,
    // for engine seeds at the edges and for mixed ones. A copy taken
    // mid-round (before the first twist, at the k < 156 / k >= 156
    // boundary of the twist's second read, and just before the wrap at
    // word 311) continues the same stream as the original.
    constexpr int outputs = 4 * 312 + 5;
    std::vector<std::uint64_t> engine_seeds = {0, 1, ~std::uint64_t{0}};
    for (std::uint64_t i = 0; i < 16; ++i) engine_seeds.push_back(splitmix64(1000 + i));
    for (const std::uint64_t engine_seed : engine_seeds) {
        const std::uint64_t seed = unmix_splitmix64(engine_seed);
        ASSERT_EQ(splitmix64(seed), engine_seed);
        std::mt19937_64 reference(engine_seed);
        std::vector<std::uint64_t> expected(outputs);
        for (std::uint64_t& x : expected) x = reference();

        Rng rng(seed);
        for (int i = 0; i < outputs; ++i)
            ASSERT_EQ(rng.next_u64(), expected[static_cast<std::size_t>(i)])
                << "engine seed " << engine_seed << " output " << i;
        for (const int k : {0, 155, 156, 311}) {
            Rng original(seed);
            for (int i = 0; i < k; ++i) original.next_u64();
            Rng copy = original;
            for (int i = k; i < outputs; ++i) {
                const std::uint64_t want = expected[static_cast<std::size_t>(i)];
                ASSERT_EQ(original.next_u64(), want) << "k " << k << " output " << i;
                ASSERT_EQ(copy.next_u64(), want) << "copy at k " << k << " output " << i;
            }
        }
        // fork_at children: a child's stream is the engine seeded with
        // its own mixed seed.
        const Rng parent(seed);
        for (const std::uint64_t child_id : {0ULL, 1ULL, 121ULL, ~0ULL}) {
            Rng child = parent.fork_at(child_id);
            std::mt19937_64 child_reference(splitmix64(child.seed()));
            for (int i = 0; i < outputs; ++i)
                ASSERT_EQ(child.next_u64(), child_reference())
                    << "child " << child_id << " output " << i;
        }
    }
}

TEST(Rng, ForkBlockMatchesForkAt) {
    // fork_block(first, out) seeds out[j] as fork_at(first + j), ids
    // wrapping mod 2^64 (2^64 - 2 wraps inside a group of 3 or 4), into
    // streams that have already drawn: each must restart from word 0.
    constexpr int outputs = 2 * 312 + 5;
    const Rng parent(2024);
    Rng used(99);
    for (int i = 0; i < 100; ++i) used.next_u64();
    for (const std::uint64_t first : {std::uint64_t{0}, std::uint64_t{1}, splitmix64(77), ~std::uint64_t{1}}) {
        for (std::size_t count = 1; count <= 4; ++count) {
            std::array<Rng, 4> block{used, used, used, used};
            parent.fork_block(first, std::span(block).first(count));
            for (std::size_t j = 0; j < count; ++j) {
                Rng expected = parent.fork_at(first + j);
                ASSERT_EQ(block[j].seed(), expected.seed())
                    << "first " << first << " count " << count << " lane " << j;
                for (int i = 0; i < outputs; ++i)
                    ASSERT_EQ(block[j].next_u64(), expected.next_u64())
                        << "first " << first << " count " << count << " lane " << j
                        << " output " << i;
            }
            for (std::size_t j = count; j < block.size(); ++j)
                EXPECT_EQ(block[j].seed(), used.seed()) << "lane " << j << " is not in the block";
        }
    }
}

TEST(Rng, SharedLogFactorialsMatchUntabledDraws) {
    // Samplers sharing one log-factorial table draw exactly what untabled
    // ones draw. The means: two that stay untabled (below 12, and the
    // 2^31 cutover), Devroye's edge and fractional, small and large
    // means, two where the 4096 half-width cap binds, a duplicate and
    // two overlapping windows, so windows merge.
    const double means[] = {11.99, k_poisson_cutover, 12.0,     12.7,    28.4,
                            6.88e4, 3.41e6,           k_poisson_cutover - 1.0, 28.4,
                            100.0,  103.5};
    std::vector<PoissonSampler> tabled;
    for (const double mean : means) tabled.emplace_back(mean);
    const std::vector<double> table = PoissonSampler::share_log_factorials(tabled);

    // The table is the merged union of the windows, k ascending, and
    // each entry is lgamma_r(k + 1) bit for bit.
    std::set<std::int64_t> union_k;
    for (const double mean : means) {
        if (mean < 12 || mean >= k_poisson_cutover) continue;
        const double m = std::floor(mean);
        const auto pi_4 = static_cast<double>(0.7853981633974483096156608458198757L);
        const double dx = std::sqrt(2 * m * std::log(32 * m / pi_4));
        const double d = std::round(std::max<double>(6.0, std::min(m, dx)));
        const double h = std::min(std::ceil(3 * std::sqrt(m)) + 2, 4096.0);
        const auto lo = static_cast<std::int64_t>(m + std::max(-m, -h));
        const auto hi = static_cast<std::int64_t>(m + std::min(d, h));
        for (std::int64_t k = lo; k <= hi; ++k) union_k.insert(k);
    }
    ASSERT_EQ(table.size(), union_k.size());
    std::size_t entry = 0;
    for (const std::int64_t k : union_k) {
        int sign = 0;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(table[entry]),
                  std::bit_cast<std::uint64_t>(::lgamma_r(static_cast<double>(k) + 1, &sign)))
            << "k " << k;
        ++entry;
    }

    // 20k draws per sampler on fork_at streams, 100 per stream.
    const Rng root(31);
    auto draws_match = [&](const PoissonSampler& sampler, double mean) {
        const PoissonSampler untabled(mean);
        for (std::uint64_t child = 0; child < 200; ++child) {
            Rng a = root.fork_at(child);
            Rng b = root.fork_at(child);
            for (int i = 0; i < 100; ++i)
                if (sampler(a) != untabled(b)) return false;
            if (a.next_u64() != b.next_u64()) return false;
        }
        return true;
    };
    for (std::size_t i = 0; i < tabled.size(); ++i)
        EXPECT_TRUE(draws_match(tabled[i], means[i])) << "mean " << means[i];

    // The table stops at 2^20 entries: 140 disjoint 8193-entry windows
    // table the first 127, and the samplers past them draw untabled.
    std::vector<double> spread_means;
    std::vector<PoissonSampler> spread;
    for (int i = 1; i <= 140; ++i) {
        spread_means.push_back(1e7 * i);
        spread.emplace_back(spread_means.back());
    }
    const std::vector<double> spread_table = PoissonSampler::share_log_factorials(spread);
    EXPECT_EQ(spread_table.size(), 127u * 8193u);
    for (const std::size_t i : {std::size_t{0}, std::size_t{126}, std::size_t{127}, std::size_t{139}}) {
        const PoissonSampler untabled(spread_means[i]);
        Rng a = root.fork_at(i);
        Rng b = root.fork_at(i);
        for (int draw = 0; draw < 100; ++draw)
            ASSERT_EQ(spread[i](a), untabled(b)) << "mean " << spread_means[i] << " draw " << draw;
    }

    // A lone sampler's table is its own window, and draws read it at both
    // edges: an entry of -inf accepts every x it covers, which moves the
    // draws once the untabled sampler rejects such an x.
    for (const double mean : {12.7, 28.4}) {
        std::vector<PoissonSampler> lone{PoissonSampler(mean)};
        std::vector<double> own = PoissonSampler::share_log_factorials(lone);
        ASSERT_TRUE(draws_match(lone[0], mean));
        for (double* edge : {&own.front(), &own.back()}) {
            const double kept = *edge;
            *edge = -std::numeric_limits<double>::infinity();
            EXPECT_FALSE(draws_match(lone[0], mean))
                << "mean " << mean << (edge == &own.front() ? " first" : " last") << " entry";
            *edge = kept;
        }
    }
}

TEST(Rng, PoissonSamplerReuseMatchesFreshDistribution) {
    // One sampler per mean, drawn 300 times, takes the draws a fresh
    // std::poisson_distribution<long long> takes per draw on Rng's
    // stream: constants computed once, and no state (such as the polar
    // normal's saved value) carried from one draw to the next. The
    // means cover zero, the product of uniforms (< 12), its edge,
    // Devroye's rejection method with integer and fractional means
    // (its constants use floor(mean)) and just below the 2^31 cutover.
#ifndef __GLIBCXX__
    GTEST_SKIP() << "the reference draw is libstdc++'s";
#endif
    const double means[] = {0.0, 1e-9, 11.99, 12.0, 12.7, 2.05e5, 2.0500075e5,
                            k_poisson_cutover - 1.0};
    for (const std::uint64_t seed : {1ULL, 404ULL}) {
        for (const double mean : means) {
            const PoissonSampler sampler(mean);
            Rng rng(seed);
            std::mt19937_64 engine(splitmix64(seed));
            for (int i = 0; i < 300; ++i) {
                // std::poisson_distribution requires mean > 0; zero draws 0
                // and takes nothing from the engine.
                long long expected = 0;
                if (mean > 0.0) expected = std::poisson_distribution<long long>(mean)(engine);
                ASSERT_EQ(sampler(rng), static_cast<std::uint64_t>(expected))
                    << "seed " << seed << " mean " << mean << " draw " << i;
            }
            EXPECT_EQ(rng.next_u64(), engine()) << "seed " << seed << " mean " << mean;
        }
        // From the cutover on, the rounded normal over a fresh
        // std::normal_distribution draw, as Rng::poisson takes it.
        for (const double mean : {k_poisson_cutover, 1e12}) {
            const PoissonSampler sampler(mean);
            Rng rng(seed), single(seed);
            std::mt19937_64 engine(splitmix64(seed));
            for (int i = 0; i < 300; ++i) {
                const std::uint64_t expected =
                    poisson_from_normal(mean, std::normal_distribution<double>()(engine));
                const std::uint64_t draw = sampler(rng);
                ASSERT_EQ(draw, expected)
                    << "seed " << seed << " mean " << mean << " draw " << i;
                ASSERT_EQ(single.poisson(mean), draw);
            }
            EXPECT_EQ(rng.next_u64(), engine()) << "seed " << seed << " mean " << mean;
        }
    }
    for (const double bad : {std::nan(""), -1.0, std::numeric_limits<double>::infinity()})
        EXPECT_THROW(PoissonSampler{bad}, std::invalid_argument) << bad;
}

TEST(PoissonFromNormal, ClampsNegativeDrawsToZero) {
    // A z of -10^5 sigma drags the draw far below zero for any huge
    // mean; the mapping must clamp instead of wrapping through the
    // signed->unsigned cast.
    EXPECT_EQ(poisson_from_normal(4.0, -1e5), 0u);
    EXPECT_EQ(poisson_from_normal(k_poisson_cutover, -1e9), 0u);
    EXPECT_EQ(poisson_from_normal(0.0, -1.0), 0u);
}

TEST(PoissonFromNormal, RoundsToNearestCount) {
    EXPECT_EQ(poisson_from_normal(100.0, 0.0), 100u);
    // 100 + 10 * 0.04 = 100.4 -> 100; 100 + 10 * 0.06 = 100.6 -> 101.
    EXPECT_EQ(poisson_from_normal(100.0, 0.04), 100u);
    EXPECT_EQ(poisson_from_normal(100.0, 0.06), 101u);
}

TEST(PoissonFromNormal, MatchesEngineAboveCutover) {
    // Above the cutover, poisson() must be exactly poisson_from_normal
    // over the engine's next standard-normal draw.
    const double mean = k_poisson_cutover * 4.0;
    Rng a(707), b(707);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(a.poisson(mean), poisson_from_normal(mean, b.normal()));
}

} // namespace
} // namespace seamap
