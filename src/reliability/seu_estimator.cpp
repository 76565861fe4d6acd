#include "reliability/seu_estimator.h"

#include "reliability/register_usage.h"

// estimate() runs once per full evaluate_design() (reliability/
// design_eval.cpp); the marker arms seamap_lint's hot-path-alloc rule
// so new allocation-shaped calls in this file fail `make lint`.
// seamap-lint: hot-path

namespace seamap {

SeuEstimator::SeuEstimator(SerModel ser, ExposurePolicy policy)
    : ser_(std::move(ser)), policy_(policy) {}

double SeuEstimator::core_gamma(std::uint64_t register_bits, double exposure_seconds,
                                double vdd) const {
    return static_cast<double>(register_bits) * exposure_seconds * ser_.ser_per_bit_second(vdd);
}

SeuBreakdown SeuEstimator::estimate(const TaskGraph& graph, const Mapping& mapping,
                                    const MpsocArchitecture& arch, const ScalingVector& levels,
                                    const Schedule& schedule) const {
    arch.validate_scaling(levels);
    const auto register_bits = per_core_register_bits(graph, mapping, arch.core_count());

    SeuBreakdown out;
    out.per_core.assign(arch.core_count(), 0.0);
    for (std::size_t c = 0; c < arch.core_count(); ++c) {
        if (register_bits[c] == 0) continue; // no live state on this core
        const double exposure = policy_ == ExposurePolicy::full_duration
                                    ? schedule.total_time_seconds
                                    : schedule.core_busy_seconds[c];
        const double vdd = arch.scaling_table().vdd(levels[c]);
        out.per_core[c] = core_gamma(register_bits[c], exposure, vdd);
        out.total += out.per_core[c];
    }
    return out;
}

} // namespace seamap
