#include "arch/power_model.h"

#include <gtest/gtest.h>

#include <array>
#include <limits>

namespace seamap {
namespace {

PowerModel make_model(double c_eff = 60e-12, double idle = 0.3) {
    return PowerModel(VoltageScalingTable::arm7_three_level(), PowerParams{c_eff, idle});
}

TEST(PowerModel, CoreActivePowerFollowsEq1) {
    const PowerModel model = make_model(60e-12);
    // P = C_eff * f * V^2 = 60e-12 * 200e6 * 1.0 = 12 mW at nominal.
    EXPECT_NEAR(model.core_active_power_mw(1), 12.0, 1e-9);
    // Level 2: 60e-12 * 100e6 * 0.58^2 = 2.0184 mW.
    EXPECT_NEAR(model.core_active_power_mw(2), 2.0184, 1e-6);
    // Level 3: 60e-12 * 66.7e6 * 0.44^2 = 0.7748 mW.
    EXPECT_NEAR(model.core_active_power_mw(3), 0.774787, 1e-5);
}

TEST(PowerModel, EnergyPerCycleIsActivePowerOverFrequency) {
    const PowerModel model = make_model(60e-12);
    // mW / Hz at nominal: 12 mW / 200e6 Hz; proportional to Vdd^2, so
    // the slower levels are cheaper per cycle (that monotonicity is
    // what the branch-and-bound power bound's knapsack exploits).
    EXPECT_NEAR(model.core_energy_per_cycle_mws(1), 12.0 / 200e6, 1e-18);
    EXPECT_NEAR(model.core_energy_per_cycle_mws(2), 2.0184 / 100e6, 1e-14);
    EXPECT_LT(model.core_energy_per_cycle_mws(3), model.core_energy_per_cycle_mws(2));
    EXPECT_LT(model.core_energy_per_cycle_mws(2), model.core_energy_per_cycle_mws(1));
}

TEST(PowerModel, VoltageScalingSavesSuperlinearly) {
    const PowerModel model = make_model();
    // f*V^2 scaling: level 2 must save more than the 2x frequency cut.
    EXPECT_LT(model.core_active_power_mw(2), model.core_active_power_mw(1) / 2.0);
    EXPECT_LT(model.core_active_power_mw(3), model.core_active_power_mw(2));
}

TEST(PowerModel, MpsocPowerWeightsByUtilization) {
    const PowerModel model = make_model(60e-12, 0.0); // no idle power
    const std::array<ScalingLevel, 2> levels = {1, 1};
    const std::array<double, 2> util = {1.0, 0.5};
    EXPECT_NEAR(model.mpsoc_power_mw(levels, util), 12.0 + 6.0, 1e-9);
}

TEST(PowerModel, IdleActivityAddsClockTreePower) {
    const PowerModel model = make_model(60e-12, 0.3);
    const std::array<ScalingLevel, 1> levels = {1};
    const std::array<double, 1> half = {0.5};
    // 12 mW * (0.5 + 0.3*0.5) = 7.8 mW.
    EXPECT_NEAR(model.mpsoc_power_mw(levels, half), 7.8, 1e-9);
}

TEST(PowerModel, ZeroUtilizationMeansPowerGated) {
    const PowerModel model = make_model(60e-12, 0.3);
    const std::array<ScalingLevel, 2> levels = {1, 1};
    const std::array<double, 2> util = {1.0, 0.0};
    EXPECT_NEAR(model.mpsoc_power_mw(levels, util), 12.0, 1e-9);
}

TEST(PowerModel, SizeMismatchThrows) {
    const PowerModel model = make_model();
    const std::array<ScalingLevel, 2> levels = {1, 1};
    const std::array<double, 1> util = {1.0};
    EXPECT_THROW((void)model.mpsoc_power_mw(levels, util), std::invalid_argument);
}

TEST(PowerModel, UtilizationRangeChecked) {
    const PowerModel model = make_model();
    const std::array<ScalingLevel, 1> levels = {1};
    const std::array<double, 1> negative = {-0.1};
    const std::array<double, 1> too_big = {1.5};
    EXPECT_THROW((void)model.mpsoc_power_mw(levels, negative), std::invalid_argument);
    EXPECT_THROW((void)model.mpsoc_power_mw(levels, too_big), std::invalid_argument);
}

TEST(PowerModel, ParamValidation) {
    EXPECT_THROW(PowerModel(VoltageScalingTable::arm7_three_level(), PowerParams{0.0, 0.3}),
                 std::invalid_argument);
    EXPECT_THROW(PowerModel(VoltageScalingTable::arm7_three_level(), PowerParams{1e-12, -0.1}),
                 std::invalid_argument);
    EXPECT_THROW(PowerModel(VoltageScalingTable::arm7_three_level(), PowerParams{1e-12, 1.1}),
                 std::invalid_argument);
    // Non-finite parameters would make every power non-finite.
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    constexpr double inf = std::numeric_limits<double>::infinity();
    for (const PowerParams& bad : {PowerParams{nan, 0.3}, PowerParams{inf, 0.3},
                                   PowerParams{60e-12, nan}})
        EXPECT_THROW(PowerModel(VoltageScalingTable::arm7_three_level(), bad),
                     std::invalid_argument);
}

} // namespace
} // namespace seamap
