#include "sched/mapping.h"

#include "taskgraph/fig8.h"

#include <gtest/gtest.h>

namespace seamap {
namespace {

TEST(Mapping, StartsUnassigned) {
    const Mapping mapping(5, 3);
    EXPECT_EQ(mapping.task_count(), 5u);
    EXPECT_EQ(mapping.core_count(), 3u);
    EXPECT_FALSE(mapping.complete());
    EXPECT_EQ(mapping.assigned_count(), 0u);
    EXPECT_FALSE(mapping.is_assigned(0));
    EXPECT_THROW((void)mapping.core_of(0), std::logic_error);
}

TEST(Mapping, AssignAndReassign) {
    Mapping mapping(3, 2);
    mapping.assign(0, 1);
    EXPECT_TRUE(mapping.is_assigned(0));
    EXPECT_EQ(mapping.core_of(0), 1u);
    EXPECT_EQ(mapping.assigned_count(), 1u);
    mapping.assign(0, 0); // reassign must not double-count
    EXPECT_EQ(mapping.core_of(0), 0u);
    EXPECT_EQ(mapping.assigned_count(), 1u);
}

TEST(Mapping, CompleteDetection) {
    Mapping mapping(2, 2);
    mapping.assign(0, 0);
    EXPECT_FALSE(mapping.complete());
    mapping.assign(1, 1);
    EXPECT_TRUE(mapping.complete());
}

TEST(Mapping, TasksOnAndUsedCores) {
    Mapping mapping(4, 3);
    mapping.assign(0, 0);
    mapping.assign(1, 2);
    mapping.assign(2, 0);
    mapping.assign(3, 2);
    EXPECT_EQ(mapping.tasks_on(0), (std::vector<TaskId>{0, 2}));
    EXPECT_TRUE(mapping.tasks_on(1).empty());
    EXPECT_EQ(mapping.task_count_on(0), 2u);
    EXPECT_EQ(mapping.task_count_on(1), 0u);
    EXPECT_EQ(mapping.task_count_on(2), 2u);
}

TEST(Mapping, BoundsChecked) {
    Mapping mapping(2, 2);
    EXPECT_THROW(mapping.assign(5, 0), std::out_of_range);
    EXPECT_THROW(mapping.assign(0, 5), std::out_of_range);
    EXPECT_THROW((void)mapping.is_assigned(9), std::out_of_range);
    EXPECT_THROW(Mapping(2, 0), std::invalid_argument);
}

TEST(Mapping, Equality) {
    Mapping a(2, 2), b(2, 2);
    a.assign(0, 1);
    EXPECT_NE(a, b);
    b.assign(0, 1);
    EXPECT_EQ(a, b);
}

TEST(MappingHelpers, RoundRobinIsCompleteAndBalanced) {
    const TaskGraph graph = fig8_example_graph();
    const Mapping mapping = round_robin_mapping(graph, 3);
    EXPECT_TRUE(mapping.complete());
    EXPECT_EQ(mapping.task_count_on(0), 2u);
    EXPECT_EQ(mapping.task_count_on(1), 2u);
    EXPECT_EQ(mapping.task_count_on(2), 2u);
}

TEST(MappingHelpers, SingleCorePutsEverythingOnCoreZero) {
    const TaskGraph graph = fig8_example_graph();
    const Mapping mapping = single_core_mapping(graph, 4);
    EXPECT_TRUE(mapping.complete());
    EXPECT_EQ(mapping.task_count_on(0), graph.task_count());
}

} // namespace
} // namespace seamap
