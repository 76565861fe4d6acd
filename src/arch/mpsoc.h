// Homogeneous MPSoC architecture model (paper Fig. 1): C identical
// cores, each with private caches/memory, dedicated inter-core links
// and a clock-tree generator that feeds every core its own
// voltage/frequency pair.
#pragma once

#include "arch/power_model.h"
#include "arch/scaling_enumerator.h"
#include "arch/scaling_table.h"

#include <cstddef>

namespace seamap {

/// Architecture = core count + scaling table + power parameters.
class MpsocArchitecture {
public:
    MpsocArchitecture(std::size_t core_count, VoltageScalingTable table,
                      PowerParams power = PowerParams{});

    std::size_t core_count() const { return core_count_; }
    const VoltageScalingTable& scaling_table() const { return power_.table(); }
    const PowerModel& power_model() const { return power_; }

    /// Frequency (Hz) of a core running at the given level.
    double frequency_hz(ScalingLevel level) const { return scaling_table().frequency_hz(level); }

    /// Throws unless `levels` has one in-range entry per core.
    void validate_scaling(const ScalingVector& levels) const;

private:
    std::size_t core_count_;
    PowerModel power_;
};

} // namespace seamap
