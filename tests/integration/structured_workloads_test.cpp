// Full-pipeline integration over the structured workloads (FFT,
// Gaussian elimination, pipeline): the DSE must produce coherent
// designs across topology extremes, and loosening the constraint can
// only ever help.
#include "core/dse.h"
#include "sim/campaign.h"
#include "taskgraph/standard_graphs.h"

#include <gtest/gtest.h>

#include <cmath>

namespace seamap {
namespace {

DseParams quick_params(std::uint64_t iterations = 1'200) {
    DseParams params;
    params.search.max_iterations = iterations;
    params.search.seed = 21;
    return params;
}

double two_core_bound(const TaskGraph& graph) {
    const MpsocArchitecture two(2, VoltageScalingTable::arm7_three_level());
    return tm_lower_bound_seconds(graph, two, {1, 1});
}

TEST(StructuredWorkloads, DsePicksFeasibleDesignsOnAllTopologies) {
    const TaskGraph workloads[] = {fft_task_graph(4), gaussian_elimination_task_graph(6),
                                   pipeline_task_graph(5, 2)};
    const DesignSpaceExplorer explorer{SerModel{}};
    for (const TaskGraph& graph : workloads) {
        const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
        const DseResult result =
            explorer.explore(graph, arch, 1.4 * two_core_bound(graph), quick_params());
        ASSERT_TRUE(result.best.has_value()) << graph.name();
        EXPECT_TRUE(result.best->metrics.feasible) << graph.name();
        EXPECT_GT(result.best->metrics.gamma, 0.0) << graph.name();
        // The Pareto front never contains an infeasible point.
        for (const DsePoint& point : result.pareto_front)
            EXPECT_TRUE(point.metrics.feasible) << graph.name();
    }
}

TEST(StructuredWorkloads, LooseningTheDeadlineNeverCostsPower) {
    // Monotonicity: a superset of feasible designs cannot have a more
    // expensive minimum. (Search budgets are deterministic and shared,
    // and the scaling pre-filter only widens with the deadline.)
    const TaskGraph graph = fft_task_graph(4);
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
    const DesignSpaceExplorer explorer{SerModel{}};
    const double base = two_core_bound(graph);
    double previous_power = 1e300;
    for (const double factor : {1.3, 1.8, 3.0, 10.0}) {
        const DseResult result =
            explorer.explore(graph, arch, factor * base, quick_params(800));
        ASSERT_TRUE(result.best.has_value()) << "factor " << factor;
        // Tolerate small search noise: the minimum must not rise by
        // more than 10% as the constraint relaxes.
        EXPECT_LE(result.best->metrics.power_mw, previous_power * 1.10)
            << "factor " << factor;
        previous_power = std::min(previous_power, result.best->metrics.power_mw);
    }
}

TEST(StructuredWorkloads, WideFftToleratesDeeperScalingThanSerialGaussian) {
    // The FFT's width lets a 4-core platform hide slow clocks; the
    // triangular Gaussian DAG cannot. At the same relative deadline the
    // FFT design must run at an (aggregate) deeper scaling.
    const DesignSpaceExplorer explorer{SerModel{}};
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    auto mean_level = [&](const TaskGraph& graph) {
        const DseResult result =
            explorer.explore(graph, arch, 1.5 * two_core_bound(graph), quick_params());
        if (!result.best) return 0.0;
        double sum = 0.0;
        for (ScalingLevel level : result.best->levels) sum += level;
        return sum / static_cast<double>(result.best->levels.size());
    };
    const double fft_level = mean_level(fft_task_graph(4));
    const double gauss_level = mean_level(gaussian_elimination_task_graph(6));
    ASSERT_GT(fft_level, 0.0);
    ASSERT_GT(gauss_level, 0.0);
    EXPECT_GE(fft_level, gauss_level);
}

TEST(StructuredWorkloads, InjectionTracksAnalyticOnPipelinedWorkload) {
    StandardGraphParams params;
    params.batch_count = 40;
    const TaskGraph graph = pipeline_task_graph(4, 2, params);
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const ScalingVector levels = {1, 2, 2, 3};
    const Mapping mapping = round_robin_mapping(graph, 4);
    const Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, levels);
    CampaignConfig config;
    config.trials = 200;
    config.seed = 99;
    config.weights = FaultSiteWeights::register_file_only();
    const CampaignReport campaign =
        CampaignEngine(SerModel{}, config).run(graph, mapping, arch, levels, schedule);
    const double stderr_mean = std::sqrt(campaign.analytic_gamma / 200.0);
    EXPECT_NEAR(campaign.total_stats.mean(), campaign.analytic_gamma, 5.0 * stderr_mean);
}

} // namespace
} // namespace seamap
