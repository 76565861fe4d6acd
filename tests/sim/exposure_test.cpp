#include "sim/exposure.h"

#include "reliability/seu_estimator.h"
#include "sim/campaign.h"
#include "taskgraph/fig8.h"
#include "taskgraph/mpeg2.h"

#include <gtest/gtest.h>

namespace seamap {
namespace {

struct Fixture {
    TaskGraph graph = fig8_example_graph();
    MpsocArchitecture arch{3, VoltageScalingTable::arm7_three_level()};
    ScalingVector levels = {1, 2, 2};
    Mapping mapping = round_robin_mapping(graph, 3);
    Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, levels);
};

/// Expected SEU count of the design's register-file exposure under
/// `policy`: the summed Poisson means of the campaign's register-file
/// sources, which weigh each profile interval at 1.0.
double register_file_seus(const TaskGraph& graph, const Mapping& mapping,
                          const MpsocArchitecture& arch, const ScalingVector& levels,
                          const Schedule& schedule, SimExposurePolicy policy) {
    CampaignConfig config;
    config.policy = policy;
    config.weights = FaultSiteWeights::register_file_only();
    double total = 0.0;
    for (const FaultSource& source :
         CampaignEngine(SerModel{}, config).build_sources(graph, mapping, arch, levels, schedule))
        if (source.site == FaultSite::register_file) total += source.mean_seus;
    return total;
}

TEST(Exposure, FullDurationOneIntervalPerUsedCore) {
    Fixture f;
    const auto profile =
        build_exposure_profile(f.graph, f.mapping, f.arch, f.schedule,
                               SimExposurePolicy::full_duration);
    ASSERT_EQ(profile.size(), 3u); // all three cores hold tasks
    for (const auto& interval : profile) {
        EXPECT_DOUBLE_EQ(interval.duration_seconds, f.schedule.total_time_seconds);
        EXPECT_FALSE(interval.live.empty());
    }
}

TEST(Exposure, UnusedCoreHasNoInterval) {
    Fixture f;
    const Mapping localized = single_core_mapping(f.graph, 3);
    const Schedule schedule =
        ListScheduler{}.schedule(f.graph, localized, f.arch, f.levels);
    const auto profile = build_exposure_profile(f.graph, localized, f.arch, schedule,
                                                SimExposurePolicy::full_duration);
    ASSERT_EQ(profile.size(), 1u);
    EXPECT_EQ(profile[0].core, 0u);
}

TEST(Exposure, BusyOnlyUsesBusySeconds) {
    Fixture f;
    const auto profile = build_exposure_profile(f.graph, f.mapping, f.arch, f.schedule,
                                                SimExposurePolicy::busy_only);
    ASSERT_EQ(profile.size(), 3u);
    for (const auto& interval : profile)
        EXPECT_DOUBLE_EQ(interval.duration_seconds,
                         f.schedule.core_busy_seconds[interval.core]);
}

TEST(Exposure, RunningTaskOneIntervalPerTask) {
    Fixture f;
    const auto profile = build_exposure_profile(f.graph, f.mapping, f.arch, f.schedule,
                                                SimExposurePolicy::running_task);
    ASSERT_EQ(profile.size(), f.graph.task_count());
    for (TaskId t = 0; t < f.graph.task_count(); ++t) {
        EXPECT_EQ(profile[t].live, f.graph.task(t).registers);
        const double exec = f.schedule.entries[t].finish_seconds -
                            f.schedule.entries[t].start_seconds;
        EXPECT_NEAR(profile[t].duration_seconds, exec, 1e-12); // batch = 1
    }
}

TEST(Exposure, RunningTaskScalesWithBatchCount) {
    TaskGraph graph = fig8_example_graph();
    graph.set_batch_count(10);
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
    const ScalingVector levels = {1, 2, 2};
    const Mapping mapping = round_robin_mapping(graph, 3);
    const Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, levels);
    const auto profile = build_exposure_profile(graph, mapping, arch, schedule,
                                                SimExposurePolicy::running_task);
    // Whole-run exposure of task 0: 10 iterations of its per-iteration time.
    const double per_iter =
        schedule.entries[0].finish_seconds - schedule.entries[0].start_seconds;
    EXPECT_NEAR(profile[0].duration_seconds, per_iter * 10.0, 1e-12);
}

TEST(Exposure, IncompleteMappingThrows) {
    Fixture f;
    Mapping incomplete(f.graph.task_count(), 3);
    incomplete.assign(0, 0);
    EXPECT_THROW((void)build_exposure_profile(f.graph, incomplete, f.arch, f.schedule,
                                              SimExposurePolicy::full_duration),
                 std::invalid_argument);
}

TEST(Exposure, ExpectedSeusMatchesAnalyticFullDuration) {
    Fixture f;
    const double from_profile = register_file_seus(f.graph, f.mapping, f.arch, f.levels,
                                                   f.schedule, SimExposurePolicy::full_duration);
    const SeuEstimator estimator{SerModel{}, ExposurePolicy::full_duration};
    const double analytic =
        estimator.estimate(f.graph, f.mapping, f.arch, f.levels, f.schedule).total;
    EXPECT_NEAR(from_profile, analytic, analytic * 1e-12);
}

TEST(Exposure, ExpectedSeusMatchesAnalyticBusyOnly) {
    Fixture f;
    const double from_profile = register_file_seus(f.graph, f.mapping, f.arch, f.levels,
                                                   f.schedule, SimExposurePolicy::busy_only);
    const SeuEstimator estimator{SerModel{}, ExposurePolicy::busy_only};
    const double analytic =
        estimator.estimate(f.graph, f.mapping, f.arch, f.levels, f.schedule).total;
    EXPECT_NEAR(from_profile, analytic, analytic * 1e-12);
}

TEST(Exposure, Mpeg2BatchedFullDurationDominatesRunningTask) {
    // Union-over-the-whole-run exposure must upper-bound the per-task
    // exposure for the same design.
    const TaskGraph graph = mpeg2_decoder_graph();
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const ScalingVector levels = {2, 2, 2, 2};
    const Mapping mapping = round_robin_mapping(graph, 4);
    const Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, levels);
    EXPECT_GT(register_file_seus(graph, mapping, arch, levels, schedule,
                                 SimExposurePolicy::full_duration),
              register_file_seus(graph, mapping, arch, levels, schedule,
                                 SimExposurePolicy::running_task));
}

} // namespace
} // namespace seamap
