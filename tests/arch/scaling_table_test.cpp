#include "arch/scaling_table.h"

#include <gtest/gtest.h>

#include <limits>

namespace seamap {
namespace {

// Eq. (2) must reproduce Table I of the paper.
TEST(VoltageLaw, ReproducesTableI) {
    EXPECT_NEAR(arm7_vdd_for_frequency(200.0), 1.00, 0.001);
    EXPECT_NEAR(arm7_vdd_for_frequency(100.0), 0.58, 0.004);
    EXPECT_NEAR(arm7_vdd_for_frequency(66.7), 0.44, 0.005);
}

TEST(VoltageLaw, RejectsNonPositiveFrequency) {
    EXPECT_THROW(arm7_vdd_for_frequency(0.0), std::invalid_argument);
    EXPECT_THROW(arm7_vdd_for_frequency(-5.0), std::invalid_argument);
}

TEST(ScalingTable, ThreeLevelMatchesTableI) {
    const auto table = VoltageScalingTable::arm7_three_level();
    ASSERT_EQ(table.level_count(), 3u);
    EXPECT_DOUBLE_EQ(table.frequency_mhz(1), 200.0);
    EXPECT_DOUBLE_EQ(table.vdd(1), 1.0);
    EXPECT_DOUBLE_EQ(table.frequency_mhz(2), 100.0);
    EXPECT_DOUBLE_EQ(table.vdd(2), 0.58);
    EXPECT_DOUBLE_EQ(table.frequency_mhz(3), 66.7);
    EXPECT_DOUBLE_EQ(table.vdd(3), 0.44);
}

TEST(ScalingTable, TwoLevelVariant) {
    const auto table = VoltageScalingTable::arm7_two_level();
    ASSERT_EQ(table.level_count(), 2u);
    EXPECT_DOUBLE_EQ(table.frequency_mhz(2), 100.0);
}

TEST(ScalingTable, FourLevelAddsOverdrive) {
    const auto table = VoltageScalingTable::arm7_four_level();
    ASSERT_EQ(table.level_count(), 4u);
    // Fig. 11: "introducing 1.2V-236MHz" as the new fastest point.
    EXPECT_DOUBLE_EQ(table.frequency_mhz(1), 236.0);
    EXPECT_DOUBLE_EQ(table.vdd(1), 1.2);
    EXPECT_DOUBLE_EQ(table.frequency_mhz(2), 200.0);
    EXPECT_DOUBLE_EQ(table.frequency_mhz(4), 66.7);
}

TEST(ScalingTable, FrequencyHzConversion) {
    const auto table = VoltageScalingTable::arm7_three_level();
    EXPECT_DOUBLE_EQ(table.frequency_hz(1), 200e6);
    EXPECT_DOUBLE_EQ(table.frequency_hz(3), 66.7e6);
}

TEST(ScalingTable, LevelBoundsChecked) {
    const auto table = VoltageScalingTable::arm7_three_level();
    EXPECT_THROW((void)table.at_level(0), std::out_of_range);
    EXPECT_THROW((void)table.at_level(4), std::out_of_range);
}

TEST(ScalingTable, RequiresDecreasingFrequencies) {
    EXPECT_THROW(VoltageScalingTable({{100.0, 0.58}, {200.0, 1.0}}), std::invalid_argument);
    EXPECT_THROW(VoltageScalingTable({{100.0, 0.58}, {100.0, 0.58}}), std::invalid_argument);
}

TEST(ScalingTable, RejectsEmptyAndNonPositive) {
    EXPECT_THROW(VoltageScalingTable({}), std::invalid_argument);
    EXPECT_THROW(VoltageScalingTable({{0.0, 1.0}}), std::invalid_argument);
    EXPECT_THROW(VoltageScalingTable({{100.0, -1.0}}), std::invalid_argument);
    // Non-finite points pass `<= 0` checks but make every power non-finite.
    EXPECT_THROW(VoltageScalingTable({{std::numeric_limits<double>::quiet_NaN(), 1.0}}),
                 std::invalid_argument);
    EXPECT_THROW(VoltageScalingTable({{100.0, std::numeric_limits<double>::infinity()}}),
                 std::invalid_argument);
}

TEST(ScalingTable, FromFrequenciesUsesVoltageLaw) {
    const auto table = VoltageScalingTable::from_frequencies({200.0, 150.0, 100.0});
    ASSERT_EQ(table.level_count(), 3u);
    EXPECT_NEAR(table.vdd(1), 1.0, 0.001);
    EXPECT_NEAR(table.vdd(2), 0.1667 + 4.1667 * 0.15, 1e-9);
    EXPECT_NEAR(table.vdd(3), 0.5834, 0.0005);
}

} // namespace
} // namespace seamap
