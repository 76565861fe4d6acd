#include "sim/exposure.h"

#include <stdexcept>

namespace seamap {

std::vector<ExposureInterval> build_exposure_profile(const TaskGraph& graph,
                                                     const Mapping& mapping,
                                                     const MpsocArchitecture& arch,
                                                     const Schedule& schedule,
                                                     SimExposurePolicy policy) {
    if (!mapping.complete())
        throw std::invalid_argument("build_exposure_profile: mapping is incomplete");
    const std::size_t cores = arch.core_count();
    std::vector<ExposureInterval> profile;

    if (policy == SimExposurePolicy::running_task) {
        // One interval per task: its own registers, live for its summed
        // execution time across all batch iterations.
        const double batches = static_cast<double>(graph.batch_count());
        for (TaskId t = 0; t < graph.task_count(); ++t) {
            const CoreId core = mapping.core_of(t);
            const double per_iter = schedule.entries[t].finish_seconds -
                                    schedule.entries[t].start_seconds;
            ExposureInterval interval;
            interval.core = core;
            interval.duration_seconds = per_iter * batches;
            interval.live = graph.task(t).registers;
            profile.push_back(std::move(interval));
        }
        return profile;
    }

    // Union-based policies: one interval per used core.
    std::vector<RegisterSet> unions(cores, RegisterSet(graph.register_file().size()));
    for (TaskId t = 0; t < graph.task_count(); ++t)
        unions[mapping.core_of(t)] |= graph.task(t).registers;
    for (std::size_t c = 0; c < cores; ++c) {
        if (unions[c].empty()) continue; // unused core: no live state
        ExposureInterval interval;
        interval.core = static_cast<CoreId>(c);
        interval.duration_seconds = policy == SimExposurePolicy::full_duration
                                        ? schedule.total_time_seconds
                                        : schedule.core_busy_seconds[c];
        interval.live = unions[c];
        profile.push_back(std::move(interval));
    }
    return profile;
}

} // namespace seamap
