// Analytic estimator of the number of SEUs experienced, eq. (3):
//     Gamma = sum_i R_i * T_i * lambda_i
// with R_i from eq. (8) and two selectable exposure semantics for T_i:
//
//  - ExposurePolicy::full_duration (default, used for all paper
//    reproductions): a core's register bank holds live application
//    state for the entire run, so its exposure is the wall-clock
//    completion time T_M regardless of when the core computes. This is
//    the semantics under which the paper's Section III observations
//    hold (localized mappings suffer through long T_M, distributed
//    mappings through duplicated R), and it matches the paper's
//    time-based SER quote ("1 SEU per 10 ms for a 1 kbit register
//    bank").
//
//  - ExposurePolicy::busy_only: exposure is the core's busy time
//    (eq. 7's T_i literally); registers are vulnerable only while the
//    core executes. Provided for the model ablation bench.
//
// Cores with no mapped tasks hold no live state and contribute nothing
// under either policy.
#pragma once

#include "arch/mpsoc.h"
#include "arch/scaling_enumerator.h"
#include "reliability/ser_model.h"
#include "sched/list_scheduler.h"
#include "sched/mapping.h"
#include "taskgraph/task_graph.h"

#include <vector>

namespace seamap {

enum class ExposurePolicy {
    full_duration,
    busy_only,
};

/// Per-core and total expected SEU counts.
struct SeuBreakdown {
    std::vector<double> per_core;
    double total = 0.0;
};

/// Gamma evaluator (eq. 3).
class SeuEstimator {
public:
    explicit SeuEstimator(SerModel ser, ExposurePolicy policy = ExposurePolicy::full_duration);

    const SerModel& ser_model() const { return ser_; }
    ExposurePolicy policy() const { return policy_; }

    /// Expected SEUs for a scheduled design.
    SeuBreakdown estimate(const TaskGraph& graph, const Mapping& mapping,
                          const MpsocArchitecture& arch, const ScalingVector& levels,
                          const Schedule& schedule) const;

    /// Primitive used by greedy construction: expected SEUs on one core
    /// holding `register_bits` of state, exposed for `exposure_seconds`
    /// at supply `vdd`.
    double core_gamma(std::uint64_t register_bits, double exposure_seconds, double vdd) const;

private:
    SerModel ser_;
    ExposurePolicy policy_;
};

} // namespace seamap
