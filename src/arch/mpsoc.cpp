#include "arch/mpsoc.h"

#include <stdexcept>

namespace seamap {

MpsocArchitecture::MpsocArchitecture(std::size_t core_count, VoltageScalingTable table,
                                     PowerParams power)
    : core_count_(core_count), power_(std::move(table), power) {
    if (core_count_ == 0)
        throw std::invalid_argument("MpsocArchitecture: need at least one core");
}

void MpsocArchitecture::validate_scaling(const ScalingVector& levels) const {
    if (levels.size() != core_count_)
        throw std::invalid_argument("MpsocArchitecture: scaling vector size != core count");
    for (ScalingLevel level : levels)
        (void)scaling_table().at_level(level); // throws if out of range
}

} // namespace seamap
