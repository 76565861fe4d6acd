#include "taskgraph/standard_graphs.h"

#include "sched/list_scheduler.h"

#include <gtest/gtest.h>

#include <array>

namespace seamap {
namespace {

TEST(FftGraph, StructureForEightPoints) {
    // log2 = 3: 3 ranks x 4 butterflies.
    const TaskGraph graph = fft_task_graph(3);
    EXPECT_EQ(graph.task_count(), 12u);
    EXPECT_NO_THROW(graph.validate());
    // Rank 0 butterflies are the only sources.
    EXPECT_EQ(graph.source_tasks().size(), 4u);
    // Every rank-1+ butterfly has exactly two producers.
    for (TaskId t = 4; t < 12; ++t)
        EXPECT_EQ(graph.in_edge_indices(t).size(), 2u) << "task " << t;
}

TEST(FftGraph, WideGraphsParallelizeWell) {
    // An FFT has per-rank parallelism equal to half the point count;
    // four cores must beat one core on makespan comfortably.
    const TaskGraph graph = fft_task_graph(4);
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const Schedule spread =
        ListScheduler{}.schedule(graph, round_robin_mapping(graph, 4), arch, {1, 1, 1, 1});
    const Schedule serial =
        ListScheduler{}.schedule(graph, single_core_mapping(graph, 4), arch, {1, 1, 1, 1});
    EXPECT_LT(spread.total_time_seconds, 0.6 * serial.total_time_seconds);
}

TEST(FftGraph, ParamValidation) {
    EXPECT_THROW((void)fft_task_graph(0), std::invalid_argument);
    EXPECT_THROW((void)fft_task_graph(11), std::invalid_argument);
    StandardGraphParams params;
    params.base_exec_cycles = 0;
    EXPECT_THROW((void)fft_task_graph(3, params), std::invalid_argument);
}

TEST(GaussianGraph, TriangularStructure) {
    const std::uint32_t n = 5;
    const TaskGraph graph = gaussian_elimination_task_graph(n);
    // Tasks: sum over k of (1 pivot + n-k-1 updates) = 4+3+2+1 pivots+updates.
    std::size_t expected = 0;
    for (std::uint32_t k = 0; k + 1 < n; ++k) expected += 1 + (n - k - 1);
    EXPECT_EQ(graph.task_count(), expected);
    EXPECT_NO_THROW(graph.validate());
    // Single source: the first pivot.
    EXPECT_EQ(graph.source_tasks().size(), 1u);
    EXPECT_EQ(graph.task(graph.source_tasks()[0]).name, "pivot_0");
}

TEST(GaussianGraph, ParallelismShrinksTowardTheEnd) {
    // The last pivot's update set is a single task — the tail is serial,
    // so adding cores has diminishing returns compared with the FFT.
    const TaskGraph graph = gaussian_elimination_task_graph(8);
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const Schedule spread =
        ListScheduler{}.schedule(graph, round_robin_mapping(graph, 4), arch, {1, 1, 1, 1});
    const double critical_path_seconds =
        static_cast<double>(graph.critical_path_cycles(false)) / 200e6;
    // Makespan is critical-path-bound well before core count 4.
    EXPECT_GT(critical_path_seconds, 0.4 * spread.total_time_seconds);
}

TEST(GaussianGraph, ParamValidation) {
    EXPECT_THROW((void)gaussian_elimination_task_graph(1), std::invalid_argument);
    EXPECT_THROW((void)gaussian_elimination_task_graph(65), std::invalid_argument);
}

TEST(PipelineGraph, StagesTimesWidthTasks) {
    const TaskGraph graph = pipeline_task_graph(5, 3);
    EXPECT_EQ(graph.task_count(), 15u);
    EXPECT_NO_THROW(graph.validate());
    EXPECT_EQ(graph.source_tasks().size(), 3u); // stage 0
    EXPECT_EQ(graph.sink_tasks().size(), 3u);   // last stage
}

TEST(PipelineGraph, BatchingEnablesPipelining) {
    StandardGraphParams params;
    params.batch_count = 50;
    const TaskGraph graph = pipeline_task_graph(4, 2, params);
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const Schedule spread =
        ListScheduler{}.schedule(graph, round_robin_mapping(graph, 4), arch, {1, 1, 1, 1});
    const Schedule serial =
        ListScheduler{}.schedule(graph, single_core_mapping(graph, 4), arch, {1, 1, 1, 1});
    // With 50 batches the spread mapping approaches 4x throughput.
    EXPECT_LT(spread.total_time_seconds, 0.45 * serial.total_time_seconds);
}

TEST(PipelineGraph, ParamValidation) {
    EXPECT_THROW((void)pipeline_task_graph(0, 2), std::invalid_argument);
    EXPECT_THROW((void)pipeline_task_graph(2, 0), std::invalid_argument);
    EXPECT_THROW((void)pipeline_task_graph(100, 100), std::invalid_argument);
}

TEST(StandardGraphs, ProducersShareBuffersWithConsumers) {
    for (const TaskGraph& graph :
         {fft_task_graph(3), gaussian_elimination_task_graph(4), pipeline_task_graph(3, 2)}) {
        for (const Edge& e : graph.edges())
            EXPECT_LT(graph.union_register_bits(std::array<TaskId, 2>{e.src, e.dst}),
                      graph.task_register_bits(e.src) + graph.task_register_bits(e.dst))
                << graph.name() << " edge " << e.src << "->" << e.dst;
    }
}

} // namespace
} // namespace seamap
