#include "arch/power_model.h"

#include "util/float_compare.h"

#include <cmath>
#include <stdexcept>

namespace seamap {

PowerModel::PowerModel(VoltageScalingTable table, PowerParams params)
    : table_(std::move(table)), params_(params) {
    // The checks reject NaN and inf too: either makes every power
    // non-finite.
    if (!std::isfinite(params_.c_eff_farads) || params_.c_eff_farads <= 0.0)
        throw std::invalid_argument("PowerModel: C_eff must be finite and > 0");
    if (!(params_.idle_activity >= 0.0 && params_.idle_activity <= 1.0))
        throw std::invalid_argument("PowerModel: idle_activity must be in [0, 1]");
}

double PowerModel::core_active_power_mw(ScalingLevel level) const {
    const OperatingPoint& op = table_.at_level(level);
    const double watts = params_.c_eff_farads * (op.f_mhz * 1e6) * op.vdd * op.vdd;
    return watts * 1e3;
}

double PowerModel::core_energy_per_cycle_mws(ScalingLevel level) const {
    const OperatingPoint& op = table_.at_level(level);
    return core_active_power_mw(level) / (op.f_mhz * 1e6);
}

double PowerModel::mpsoc_power_mw(std::span<const ScalingLevel> levels,
                                  std::span<const double> utilizations) const {
    if (levels.size() != utilizations.size())
        throw std::invalid_argument("PowerModel: levels/utilizations size mismatch");
    double total = 0.0;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const double util = utilizations[i];
        if (util < 0.0 || util > 1.0 + 1e-9)
            throw std::invalid_argument("PowerModel: utilization outside [0, 1]");
        if (exactly_zero(util)) continue; // power-gated: no tasks mapped
        const double activity = util + params_.idle_activity * (1.0 - util);
        total += core_active_power_mw(levels[i]) * activity;
    }
    return total;
}

double PowerModel::mpsoc_power_mw_precomputed(std::span<const double> core_active_mw,
                                              std::span<const double> utilizations) const {
    if (core_active_mw.size() != utilizations.size())
        throw std::invalid_argument("PowerModel: active-power/utilizations size mismatch");
    double total = 0.0;
    for (std::size_t i = 0; i < core_active_mw.size(); ++i) {
        const double util = utilizations[i];
        if (util < 0.0 || util > 1.0 + 1e-9)
            throw std::invalid_argument("PowerModel: utilization outside [0, 1]");
        if (exactly_zero(util)) continue; // power-gated: no tasks mapped
        const double activity = util + params_.idle_activity * (1.0 - util);
        total += core_active_mw[i] * activity;
    }
    return total;
}

} // namespace seamap
