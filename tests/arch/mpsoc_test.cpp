#include "arch/mpsoc.h"

#include <gtest/gtest.h>

namespace seamap {
namespace {

TEST(Mpsoc, ConstructionAndAccessors) {
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    EXPECT_EQ(arch.core_count(), 4u);
    EXPECT_EQ(arch.scaling_table().level_count(), 3u);
    EXPECT_DOUBLE_EQ(arch.frequency_hz(1), 200e6);
}

TEST(Mpsoc, RejectsZeroCores) {
    EXPECT_THROW(MpsocArchitecture(0, VoltageScalingTable::arm7_three_level()),
                 std::invalid_argument);
}

TEST(Mpsoc, ValidateScaling) {
    const MpsocArchitecture arch(2, VoltageScalingTable::arm7_three_level());
    EXPECT_NO_THROW(arch.validate_scaling({1, 3}));
    EXPECT_THROW(arch.validate_scaling({1}), std::invalid_argument);      // wrong size
    EXPECT_THROW(arch.validate_scaling({1, 4}), std::out_of_range);       // bad level
    EXPECT_THROW(arch.validate_scaling({0, 1}), std::out_of_range);       // bad level
}

} // namespace
} // namespace seamap
