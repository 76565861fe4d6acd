// SEU fault-injection engine. The paper injects SEUs into a SystemC
// model via instrumented data types [11]: for a given SER the number of
// SEUs is drawn from a Poisson process and their locations are spread
// over the register space. We sample the identical process over the
// exposure profile of the scheduled design: for every (core, interval,
// register) the hit count is Poisson with mean
//     bits(register) * duration * ser_time(Vdd(core)),
// so the expected total equals the analytic Gamma of eq. (3) exactly
// (property-tested). This is the single-trial injector; campaigns of
// many seeded trials run on the sharded engine of sim/campaign.h, whose
// register-file site draws exactly these per-trial totals.
#pragma once

#include "arch/mpsoc.h"
#include "arch/scaling_enumerator.h"
#include "reliability/ser_model.h"
#include "sched/list_scheduler.h"
#include "sched/mapping.h"
#include "sim/exposure.h"
#include "taskgraph/task_graph.h"
#include "util/rng.h"

#include <cstdint>
#include <vector>

namespace seamap {

/// Outcome of one injection trial.
struct InjectionResult {
    std::uint64_t total_seus = 0;
    /// Hits per core (indexed by CoreId).
    std::vector<std::uint64_t> per_core;
    /// Hits per register id; only filled when location sampling is on.
    /// A register duplicated on several cores accumulates hits from
    /// every physical copy.
    std::vector<std::uint64_t> per_register;
};

/// Poisson SEU injector bound to an SER model and exposure policy.
class FaultInjector {
public:
    FaultInjector(SerModel ser, SimExposurePolicy policy,
                  bool sample_locations = false);

    const SerModel& ser_model() const { return ser_; }
    SimExposurePolicy policy() const { return policy_; }

    /// One trial over a scheduled design.
    InjectionResult inject(const TaskGraph& graph, const Mapping& mapping,
                           const MpsocArchitecture& arch, const ScalingVector& levels,
                           const Schedule& schedule, Rng& rng) const;

    /// One trial over a pre-built exposure profile.
    InjectionResult inject_profile(const std::vector<ExposureInterval>& profile,
                                   const TaskGraph& graph, const MpsocArchitecture& arch,
                                   const ScalingVector& levels, Rng& rng) const;

private:
    SerModel ser_;
    SimExposurePolicy policy_;
    bool sample_locations_;
};

} // namespace seamap
