// Checks the Fig. 8 worked example against the published register
// table (Fig. 8b) and task register usage (Fig. 8c).
#include "taskgraph/fig8.h"

#include <gtest/gtest.h>

#include <array>
#include <tuple>

namespace seamap {
namespace {

TEST(Fig8, SixTasksWithPublishedCosts) {
    const TaskGraph graph = fig8_example_graph();
    ASSERT_EQ(graph.task_count(), 6u);
    const std::array<std::uint64_t, 6> units = {5, 4, 4, 5, 6, 4};
    for (TaskId t = 0; t < 6; ++t)
        EXPECT_EQ(graph.task(t).exec_cycles, units[t] * k_fig8_cost_unit);
}

TEST(Fig8, RegisterTableMatchesFig8b) {
    const TaskGraph graph = fig8_example_graph();
    const RegisterFile& regs = graph.register_file();
    ASSERT_EQ(regs.size(), 9u);
    const std::array<std::uint64_t, 9> widths = {4096, 2048, 2048, 5120, 4096, 2048, 2048, 4096,
                                                 2048};
    for (RegisterId r = 0; r < 9; ++r) {
        EXPECT_EQ(regs.bits(r), widths[r]);
        std::string expected_name = "r";
        expected_name += std::to_string(r + 1);
        EXPECT_EQ(regs.name(r), expected_name);
    }
}

TEST(Fig8, TaskRegisterUsageMatchesFig8c) {
    const TaskGraph graph = fig8_example_graph();
    // Expected total bits per task from Fig. 8(c):
    // t1=[r1,r2,r3]=8192, t2=[r2,r4,r5,r6]=13312, t3=[r4,r5,r6]=11264,
    // t4=[r5,r6,r7]=8192, t5=[r6,r7,r8]=8192, t6=[r7,r8,r9]=8192.
    const std::array<std::uint64_t, 6> bits = {8192, 13312, 11264, 8192, 8192, 8192};
    for (TaskId t = 0; t < 6; ++t) EXPECT_EQ(graph.task_register_bits(t), bits[t]) << "t" << t + 1;
}

TEST(Fig8, SharingStructure) {
    const TaskGraph graph = fig8_example_graph();
    // Adjacent tasks in the r-chain overlap; endpoints do not. A pair's
    // union counts the bits it shares once.
    using Pair = std::tuple<TaskId, TaskId, std::uint64_t>;
    for (const auto& [a, b, shared] : std::array<Pair, 4>{{
             {0, 1, 2048},  // t1 & t2 share r2
             {1, 2, 11264}, // t2 & t3 share r4,r5,r6
             {4, 5, 6144},  // t5 & t6 share r7,r8
             {0, 5, 0},     // t1 & t6 disjoint
         }})
        EXPECT_EQ(graph.union_register_bits(std::array<TaskId, 2>{a, b}),
                  graph.task_register_bits(a) + graph.task_register_bits(b) - shared)
            << "t" << a + 1 << " & t" << b + 1;
}

TEST(Fig8, DagShapeSupportsWalkthrough) {
    const TaskGraph graph = fig8_example_graph();
    EXPECT_NO_THROW(graph.validate());
    // t1's dependents are {t2, t3} (the walkthrough's first L).
    EXPECT_EQ(graph.successors(0), (std::vector<TaskId>{1, 2}));
    // t3's dependents include t4 and t5.
    const auto deps = graph.successors(2);
    EXPECT_NE(std::find(deps.begin(), deps.end(), 3u), deps.end());
    EXPECT_NE(std::find(deps.begin(), deps.end(), 4u), deps.end());
    // t6 is the sink.
    EXPECT_EQ(graph.sink_tasks(), (std::vector<TaskId>{5}));
}

TEST(Fig8, DeadlineConstant) { EXPECT_DOUBLE_EQ(k_fig8_deadline_seconds, 0.075); }

} // namespace
} // namespace seamap
