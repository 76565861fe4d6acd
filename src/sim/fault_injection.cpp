#include "sim/fault_injection.h"

#include <stdexcept>

namespace seamap {

FaultInjector::FaultInjector(SerModel ser, SimExposurePolicy policy, bool sample_locations)
    : ser_(std::move(ser)), policy_(policy), sample_locations_(sample_locations) {}

InjectionResult FaultInjector::inject_profile(const std::vector<ExposureInterval>& profile,
                                              const TaskGraph& graph,
                                              const MpsocArchitecture& arch,
                                              const ScalingVector& levels, Rng& rng) const {
    // The rate for an interval is a pure function of its core's Vdd, so
    // tabulating per core up front is bit-identical to recomputing per
    // interval — the table entry IS ser_per_bit_second(vdd(level)).
    arch.validate_scaling(levels);
    std::vector<double> rates(arch.core_count(), 0.0);
    for (std::size_t c = 0; c < rates.size(); ++c)
        rates[c] = ser_.ser_per_bit_second(arch.scaling_table().vdd(levels[c]));
    const RegisterFile& regs = graph.register_file();

    InjectionResult result;
    result.per_core.assign(arch.core_count(), 0);
    if (sample_locations_) result.per_register.assign(regs.size(), 0);

    for (const auto& interval : profile) {
        if (interval.core >= arch.core_count())
            throw std::out_of_range("FaultInjector: bad core id in profile");
        if (interval.duration_seconds < 0.0)
            throw std::invalid_argument("FaultInjector: negative exposure duration");
        const double rate = rates[interval.core];
        if (sample_locations_) {
            // Independent Poisson streams per register; the sum of the
            // per-register draws is exactly the interval's Poisson count.
            interval.live.for_each([&](RegisterId rid) {
                const double mean =
                    static_cast<double>(regs.bits(rid)) * interval.duration_seconds * rate;
                const std::uint64_t hits = rng.poisson(mean);
                result.per_register[rid] += hits;
                result.per_core[interval.core] += hits;
                result.total_seus += hits;
            });
        } else {
            const double bits = static_cast<double>(interval.live.bits_in(regs));
            const std::uint64_t hits = rng.poisson(bits * interval.duration_seconds * rate);
            result.per_core[interval.core] += hits;
            result.total_seus += hits;
        }
    }
    return result;
}

InjectionResult FaultInjector::inject(const TaskGraph& graph, const Mapping& mapping,
                                      const MpsocArchitecture& arch, const ScalingVector& levels,
                                      const Schedule& schedule, Rng& rng) const {
    const auto profile = build_exposure_profile(graph, mapping, arch, schedule, policy_);
    return inject_profile(profile, graph, arch, levels, rng);
}

} // namespace seamap
