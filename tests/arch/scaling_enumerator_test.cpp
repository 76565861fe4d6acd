#include "arch/scaling_enumerator.h"

#include "support/scaling_walker.h"
#include "util/error.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <utility>
#include <vector>

namespace seamap {
namespace {

/// The paper's Fig. 5(b): the exact 15-row sequence for 4 cores and 3
/// scaling levels.
TEST(ScalingEnumerator, ReproducesFig5bExactly) {
    const std::vector<ScalingVector> expected = {
        {3, 3, 3, 3}, {3, 3, 3, 2}, {3, 3, 3, 1}, {3, 3, 2, 2}, {3, 3, 2, 1},
        {3, 3, 1, 1}, {3, 2, 2, 2}, {3, 2, 2, 1}, {3, 2, 1, 1}, {3, 1, 1, 1},
        {2, 2, 2, 2}, {2, 2, 2, 1}, {2, 2, 1, 1}, {2, 1, 1, 1}, {1, 1, 1, 1},
    };
    ScalingEnumerator enumerator(4, 3);
    for (std::size_t row = 0; row < expected.size(); ++row) {
        const auto next = enumerator.next();
        ASSERT_TRUE(next.has_value()) << "sequence ended early at row " << row;
        EXPECT_EQ(*next, expected[row]) << "row " << row + 1 << " of Fig. 5(b)";
    }
    EXPECT_FALSE(enumerator.next().has_value());
}

TEST(ScalingEnumerator, FirstIsSlowestLastIsNominal) {
    ScalingEnumerator enumerator(3, 4);
    const auto first = enumerator.next();
    ASSERT_TRUE(first);
    EXPECT_EQ(*first, (ScalingVector{4, 4, 4}));
    ScalingVector last;
    auto current = first;
    while (current) {
        last = *current;
        current = enumerator.next();
    }
    EXPECT_EQ(last, (ScalingVector{1, 1, 1}));
}

TEST(ScalingEnumerator, ResetRestartsSequence) {
    ScalingEnumerator enumerator(2, 2);
    const auto a = enumerator.next();
    enumerator.reset();
    const auto b = enumerator.next();
    ASSERT_TRUE(a && b);
    EXPECT_EQ(*a, *b);
}

TEST(ScalingEnumerator, CombinationCountFormula) {
    // C(C+L-1, L-1).
    EXPECT_EQ(scaling_combination_count(4, 3), 15u); // the paper's number
    EXPECT_EQ(scaling_combination_count(1, 3), 3u);
    EXPECT_EQ(scaling_combination_count(6, 3), 28u);
    EXPECT_EQ(scaling_combination_count(4, 1), 1u);
    EXPECT_EQ(scaling_combination_count(2, 4), 10u);
    EXPECT_EQ(scaling_combination_count(0, 3), 0u);
}

TEST(ScalingEnumerator, CombinationCountIsExactUpTo64Bits) {
    // The acceptance instance: 16 cores x 6 levels = C(21, 5).
    EXPECT_EQ(scaling_combination_count(16, 6), 20349u);
    // C(4801280, 3) = 18446738006366306560, within 2^-21 of 2^64: the
    // intermediate products overflow 64 bits, the count does not.
    EXPECT_EQ(scaling_combination_count(4801277, 4), 18446738006366306560ull);
}

TEST(ScalingEnumerator, CombinationCountPast64BitsThrows) {
    // C(311, 11) ~ 5.5e19 and C(2015, 15) ~ 2.7e37: unrepresentable,
    // so a structured error instead of a silently wrapped count.
    for (const auto& [cores, levels] :
         {std::pair<std::size_t, std::size_t>{300, 12}, {2000, 16}, {4801278, 4}}) {
        try {
            (void)scaling_combination_count(cores, levels);
            ADD_FAILURE() << cores << " x " << levels << " did not throw";
        } catch (const Error& error) {
            EXPECT_EQ(error.category(), ErrorCategory::invalid_argument);
        }
    }
}

TEST(NextScaling, ValidatesInput) {
    EXPECT_THROW((void)next_scaling({}, 3), std::invalid_argument);
    EXPECT_THROW((void)next_scaling({0, 1}, 3), std::invalid_argument);
    EXPECT_THROW((void)next_scaling({4, 1}, 3), std::invalid_argument);
    EXPECT_THROW((void)next_scaling({1, 2}, 3), std::invalid_argument); // increasing
}

TEST(NextScaling, EndsAfterNominal) {
    EXPECT_FALSE(next_scaling({1, 1, 1}, 3).has_value());
}

TEST(ScalingEnumerator, ConstructionValidation) {
    EXPECT_THROW(ScalingEnumerator(0, 3), std::invalid_argument);
    EXPECT_THROW(ScalingEnumerator(4, 0), std::invalid_argument);
    EXPECT_THROW(ScalingEnumerator(4, 256), std::invalid_argument);
}

/// Property sweep: the sequence has exactly C(C+L-1, L-1) elements, all
/// unique, all non-increasing, for a grid of (cores, levels).
class EnumeratorProperty : public testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(EnumeratorProperty, SequenceIsCompleteUniqueAndSorted) {
    const auto [cores, levels] = GetParam();
    ScalingEnumerator enumerator(cores, levels);
    std::set<ScalingVector> seen;
    std::uint64_t count = 0;
    while (auto combo = enumerator.next()) {
        ++count;
        EXPECT_EQ(combo->size(), cores);
        for (std::size_t i = 0; i < combo->size(); ++i) {
            EXPECT_GE((*combo)[i], 1);
            EXPECT_LE((*combo)[i], levels);
            if (i > 0) {
                EXPECT_LE((*combo)[i], (*combo)[i - 1]) << "not non-increasing";
            }
        }
        EXPECT_TRUE(seen.insert(*combo).second) << "duplicate combination";
    }
    EXPECT_EQ(count, scaling_combination_count(cores, levels));
}

INSTANTIATE_TEST_SUITE_P(CoreLevelGrid, EnumeratorProperty,
                         testing::Combine(testing::Values<std::size_t>(1, 2, 3, 4, 5, 6),
                                          testing::Values<std::size_t>(1, 2, 3, 4)),
                         [](const testing::TestParamInfo<EnumeratorProperty::ParamType>& param_info) {
                             std::string label; label += "c"; label += std::to_string(std::get<0>(param_info.param)); label += "_l"; label += std::to_string(std::get<1>(param_info.param)); return label;
                         });

} // namespace
} // namespace seamap
