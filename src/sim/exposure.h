// Exposure profiles: how many live register bits each core holds, and
// for how long. This is the bridge between a scheduled design and the
// fault-injection engine — SEUs arrive as a Poisson process whose
// intensity is (live bits) x (SER per bit-second), integrated over the
// profile.
//
// The three policies mirror the modelling choices discussed in
// reliability/seu_estimator.h:
//  - full_duration: every used core's register union is live for the
//    whole run [0, T_M] (paper semantics);
//  - busy_only: the union is live only while the core computes
//    (eq. 7's busy time);
//  - running_task: only the currently executing task's registers are
//    live (the most optimistic reading of eq. 4's time average).
#pragma once

#include "arch/mpsoc.h"
#include "sched/list_scheduler.h"
#include "sched/mapping.h"
#include "taskgraph/register_file.h"
#include "taskgraph/task_graph.h"

#include <cstdint>
#include <vector>

namespace seamap {

/// Extended policy set for the simulator (the estimator's two policies
/// plus the per-task one).
enum class SimExposurePolicy {
    full_duration,
    busy_only,
    running_task,
};

/// One piece of a core's exposure: `live` register set held for
/// `duration_seconds` of wall-clock time.
struct ExposureInterval {
    CoreId core = 0;
    double duration_seconds = 0.0;
    RegisterSet live;
};

/// Build the exposure profile of a scheduled design. Durations are
/// whole-run totals (batch-aware); interval placement in time does not
/// affect Poisson counts and is not represented.
std::vector<ExposureInterval> build_exposure_profile(const TaskGraph& graph,
                                                     const Mapping& mapping,
                                                     const MpsocArchitecture& arch,
                                                     const Schedule& schedule,
                                                     SimExposurePolicy policy);

} // namespace seamap
