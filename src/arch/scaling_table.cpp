#include "arch/scaling_table.h"

#include <stdexcept>

namespace seamap {

double arm7_vdd_for_frequency(double f_mhz) {
    if (f_mhz <= 0.0) throw std::invalid_argument("arm7_vdd_for_frequency: frequency must be > 0");
    return 0.1667 + 4.1667 * f_mhz / 1000.0;
}

VoltageScalingTable::VoltageScalingTable(std::vector<OperatingPoint> points)
    : points_(std::move(points)) {
    if (points_.empty())
        throw std::invalid_argument("VoltageScalingTable: need at least one operating point");
    for (std::size_t i = 0; i < points_.size(); ++i) {
        if (points_[i].f_mhz <= 0.0 || points_[i].vdd <= 0.0)
            throw std::invalid_argument("VoltageScalingTable: operating point must be positive");
        if (i > 0 && points_[i].f_mhz >= points_[i - 1].f_mhz)
            throw std::invalid_argument(
                "VoltageScalingTable: points must be in strictly decreasing frequency order");
    }
}

const OperatingPoint& VoltageScalingTable::at_level(ScalingLevel level) const {
    if (level == 0 || level > points_.size())
        throw std::out_of_range("VoltageScalingTable: scaling level " + std::to_string(level) +
                                " outside [1, " + std::to_string(points_.size()) + "]");
    return points_[level - 1];
}

double VoltageScalingTable::frequency_hz(ScalingLevel level) const {
    return at_level(level).f_mhz * 1e6;
}

double VoltageScalingTable::frequency_mhz(ScalingLevel level) const {
    return at_level(level).f_mhz;
}

double VoltageScalingTable::vdd(ScalingLevel level) const { return at_level(level).vdd; }

VoltageScalingTable VoltageScalingTable::from_frequencies(const std::vector<double>& f_mhz) {
    std::vector<OperatingPoint> points;
    points.reserve(f_mhz.size());
    for (double f : f_mhz) points.push_back(OperatingPoint{f, arm7_vdd_for_frequency(f)});
    return VoltageScalingTable(std::move(points));
}

VoltageScalingTable VoltageScalingTable::arm7_three_level() {
    // Table I of the paper (voltages as printed there).
    return VoltageScalingTable({{200.0, 1.0}, {100.0, 0.58}, {66.7, 0.44}});
}

VoltageScalingTable VoltageScalingTable::arm7_two_level() {
    return VoltageScalingTable({{200.0, 1.0}, {100.0, 0.58}});
}

VoltageScalingTable VoltageScalingTable::arm7_four_level() {
    return VoltageScalingTable({{236.0, 1.2}, {200.0, 1.0}, {100.0, 0.58}, {66.7, 0.44}});
}

} // namespace seamap
