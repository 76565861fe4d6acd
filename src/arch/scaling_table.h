// Voltage/frequency operating points of the MPSoC cores (paper
// Table I). A VoltageScalingTable is an ordered list of operating
// points; *scaling level* 1 is the fastest (nominal) point and higher
// levels are progressively slower and lower-voltage. The ARM7TDMI
// voltage law of eq. (2) ties Vdd to frequency:
//     Vdd(f) = 0.1667 + 4.1667 * f_MHz / 1000   [volts]
// which reproduces Table I exactly: 200 MHz -> 1.00 V,
// 100 MHz -> 0.58 V, 66.7 MHz -> 0.44 V.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace seamap {

/// Per-core scaling level; 1-based, 1 = nominal/fastest.
using ScalingLevel = std::uint8_t;

/// One voltage/frequency operating point.
struct OperatingPoint {
    double f_mhz = 0.0;
    double vdd = 0.0;
};

/// ARM7TDMI voltage law, eq. (2) of the paper.
double arm7_vdd_for_frequency(double f_mhz);

/// Ordered operating points; index 0 is scaling level 1 (fastest).
class VoltageScalingTable {
public:
    /// Points must be in strictly decreasing frequency order.
    explicit VoltageScalingTable(std::vector<OperatingPoint> points);

    std::size_t level_count() const { return points_.size(); }
    /// Operating point for a 1-based scaling level.
    const OperatingPoint& at_level(ScalingLevel level) const;
    double frequency_hz(ScalingLevel level) const;
    double frequency_mhz(ScalingLevel level) const;
    double vdd(ScalingLevel level) const;

    // --- paper scaling tables -------------------------------------------
    /// Table I: {200 MHz/1.00 V, 100 MHz/0.58 V, 66.7 MHz/0.44 V}.
    static VoltageScalingTable arm7_three_level();
    /// Fig. 11 "2 levels": {200 MHz/1.00 V, 100 MHz/0.58 V}.
    static VoltageScalingTable arm7_two_level();
    /// Fig. 11 "4 levels": Table I plus an overdrive 236 MHz/1.2 V point.
    static VoltageScalingTable arm7_four_level();
    /// ARM7 points derived from eq. (2) for the given frequencies (MHz,
    /// strictly decreasing).
    static VoltageScalingTable from_frequencies(const std::vector<double>& f_mhz);

private:
    std::vector<OperatingPoint> points_;
};

} // namespace seamap
