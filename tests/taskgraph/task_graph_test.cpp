#include "taskgraph/task_graph.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace seamap {
namespace {

/// Diamond: a -> b, a -> c, b -> d, c -> d, with register overlap
/// between b and c.
TaskGraph make_diamond() {
    RegisterFile regs;
    const RegisterId shared = regs.add_register("shared", 1000);
    const RegisterId priv_a = regs.add_register("priv_a", 100);
    const RegisterId priv_d = regs.add_register("priv_d", 200);
    TaskGraph graph("diamond", std::move(regs));
    const TaskId a = graph.add_task("a", 100, std::array{priv_a});
    const TaskId b = graph.add_task("b", 200, std::array{shared});
    const TaskId c = graph.add_task("c", 300, std::array{shared});
    const TaskId d = graph.add_task("d", 400, std::array{priv_d});
    graph.add_edge(a, b, 10);
    graph.add_edge(a, c, 20);
    graph.add_edge(b, d, 30);
    graph.add_edge(c, d, 40);
    return graph;
}

TEST(TaskGraph, BasicAccessors) {
    const TaskGraph graph = make_diamond();
    EXPECT_EQ(graph.name(), "diamond");
    EXPECT_EQ(graph.task_count(), 4u);
    EXPECT_EQ(graph.edge_count(), 4u);
    EXPECT_EQ(graph.task(0).name, "a");
    EXPECT_EQ(graph.task(3).exec_cycles, 400u);
    EXPECT_EQ(graph.batch_count(), 1u);
    EXPECT_NO_THROW(graph.validate());
}

TEST(TaskGraph, RejectsZeroCostTask) {
    RegisterFile regs;
    TaskGraph graph("g", std::move(regs));
    EXPECT_THROW(graph.add_task("zero", 0), std::invalid_argument);
}

TEST(TaskGraph, RejectsSelfLoopAndDuplicateEdge) {
    TaskGraph graph = make_diamond();
    EXPECT_THROW(graph.add_edge(1, 1, 5), std::invalid_argument);
    EXPECT_THROW(graph.add_edge(0, 1, 5), std::invalid_argument); // duplicate a->b
}

TEST(TaskGraph, RejectsBadIds) {
    TaskGraph graph = make_diamond();
    EXPECT_THROW(graph.add_edge(0, 99, 1), std::out_of_range);
    EXPECT_THROW((void)graph.task(99), std::out_of_range);
    EXPECT_THROW((void)graph.edge(99), std::out_of_range);
    EXPECT_THROW((void)graph.out_edge_indices(99), std::out_of_range);
    EXPECT_THROW((void)graph.in_edge_indices(99), std::out_of_range);
    // The first invalid id, not just a far one.
    const auto tasks = static_cast<TaskId>(graph.task_count());
    EXPECT_THROW((void)graph.task(tasks), std::out_of_range);
    EXPECT_THROW((void)graph.out_edge_indices(tasks), std::out_of_range);
    EXPECT_THROW((void)graph.in_edge_indices(tasks), std::out_of_range);
    EXPECT_THROW((void)graph.edge(graph.edge_count()), std::out_of_range);
}

TEST(TaskGraph, BatchCountValidation) {
    TaskGraph graph = make_diamond();
    EXPECT_THROW(graph.set_batch_count(0), std::invalid_argument);
    graph.set_batch_count(437);
    EXPECT_EQ(graph.batch_count(), 437u);
}

TEST(TaskGraph, SuccessorsAndPredecessors) {
    const TaskGraph graph = make_diamond();
    EXPECT_EQ(graph.successors(0), (std::vector<TaskId>{1, 2}));
    std::vector<TaskId> into_sink;
    for (const std::size_t idx : graph.in_edge_indices(3)) into_sink.push_back(graph.edge(idx).src);
    EXPECT_EQ(into_sink, (std::vector<TaskId>{1, 2}));
    EXPECT_TRUE(graph.in_edge_indices(0).empty());
    EXPECT_TRUE(graph.successors(3).empty());
}

TEST(TaskGraph, SourcesAndSinks) {
    const TaskGraph graph = make_diamond();
    EXPECT_EQ(graph.source_tasks(), (std::vector<TaskId>{0}));
    EXPECT_EQ(graph.sink_tasks(), (std::vector<TaskId>{3}));
}

TEST(TaskGraph, TopologicalOrderRespectsEdges) {
    const TaskGraph graph = make_diamond();
    const auto order = graph.topological_order();
    ASSERT_EQ(order.size(), 4u);
    std::vector<std::size_t> position(4);
    for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
    for (const Edge& e : graph.edges()) EXPECT_LT(position[e.src], position[e.dst]);
}

TEST(TaskGraph, TopologicalOrderTakesSmallestReadyIdOnWideGraph) {
    // 1000 tasks whose precedence follows a shuffled order, about a
    // third of them sources, so the ready set is wide and ids do not
    // follow the edges. The order must be the plain quadratic rule:
    // repeatedly take the smallest id whose producers are all placed.
    constexpr std::size_t n = 1000;
    std::mt19937_64 rng(7);
    std::vector<TaskId> precedence(n);
    for (TaskId t = 0; t < n; ++t) precedence[t] = t;
    for (std::size_t i = n - 1; i > 0; --i)
        std::swap(precedence[i], precedence[rng() % (i + 1)]);
    RegisterFile regs;
    TaskGraph graph("wide", std::move(regs));
    for (std::size_t t = 0; t < n; ++t) graph.add_task("t" + std::to_string(t), 1);
    std::set<std::pair<TaskId, TaskId>> edges;
    for (std::size_t i = 1; i < n; ++i)
        for (std::uint64_t k = rng() % 3; k > 0; --k) {
            const TaskId src = precedence[rng() % i];
            if (edges.emplace(src, precedence[i]).second)
                graph.add_edge(src, precedence[i], 1);
        }

    std::vector<std::size_t> waiting(n);
    for (TaskId t = 0; t < n; ++t) waiting[t] = graph.in_edge_indices(t).size();
    std::vector<bool> placed(n, false);
    std::vector<TaskId> expected;
    while (expected.size() < n) {
        TaskId next = 0;
        while (placed[next] || waiting[next] != 0) ++next;
        placed[next] = true;
        expected.push_back(next);
        for (std::size_t idx : graph.out_edge_indices(next)) --waiting[graph.edge(idx).dst];
    }
    EXPECT_GT(graph.source_tasks().size(), n / 5);
    EXPECT_EQ(graph.topological_order(), expected);
}

TEST(TaskGraph, CycleDetected) {
    RegisterFile regs;
    TaskGraph graph("cyclic", std::move(regs));
    const TaskId a = graph.add_task("a", 1);
    const TaskId b = graph.add_task("b", 1);
    const TaskId c = graph.add_task("c", 1);
    graph.add_edge(a, b, 1);
    graph.add_edge(b, c, 1);
    graph.add_edge(c, a, 1);
    EXPECT_THROW(graph.validate(), std::invalid_argument);
    EXPECT_THROW((void)graph.topological_order(), std::invalid_argument);
}

TEST(TaskGraph, EmptyGraphFailsValidation) {
    RegisterFile regs;
    TaskGraph graph("empty", std::move(regs));
    EXPECT_THROW(graph.validate(), std::invalid_argument);
}

TEST(TaskGraph, TotalCosts) {
    const TaskGraph graph = make_diamond();
    EXPECT_EQ(graph.total_exec_cycles(), 1000u);
    EXPECT_EQ(graph.total_comm_cycles(), 100u);
}

TEST(TaskGraph, CriticalPathWithAndWithoutComm) {
    const TaskGraph graph = make_diamond();
    // Without comm: a + c + d = 100 + 300 + 400 = 800.
    EXPECT_EQ(graph.critical_path_cycles(false), 800u);
    // With comm: a +20+ c +40+ d = 860.
    EXPECT_EQ(graph.critical_path_cycles(true), 860u);
}

TEST(TaskGraph, RegisterQueries) {
    const TaskGraph graph = make_diamond();
    EXPECT_EQ(graph.task_register_bits(0), 100u);
    EXPECT_EQ(graph.task_register_bits(1), 1000u);
    const std::array<TaskId, 2> bc = {1, 2};
    EXPECT_EQ(graph.union_register_bits(bc), 1000u); // both use 'shared', counted once
    const std::array<TaskId, 2> ad = {0, 3};
    EXPECT_EQ(graph.union_register_bits(ad),
              graph.task_register_bits(0) + graph.task_register_bits(3)); // disjoint
    const std::array<TaskId, 4> all = {0, 1, 2, 3};
    EXPECT_EQ(graph.union_register_bits(all), 1300u);
}

TEST(TaskGraph, DuplicateRegisterIdsInTaskIgnored) {
    RegisterFile regs;
    const RegisterId r = regs.add_register("r", 64);
    TaskGraph graph("g", std::move(regs));
    const TaskId t = graph.add_task("t", 1, std::array{r, r, r});
    EXPECT_EQ(graph.task(t).registers.count(), 1u);
    EXPECT_EQ(graph.task_register_bits(t), 64u);
}

TEST(TaskGraph, OutEdgeIndicesMatchEdges) {
    const TaskGraph graph = make_diamond();
    const auto indices = graph.out_edge_indices(0);
    ASSERT_EQ(indices.size(), 2u);
    for (std::size_t idx : indices) EXPECT_EQ(graph.edge(idx).src, 0u);
    const auto in_indices = graph.in_edge_indices(3);
    ASSERT_EQ(in_indices.size(), 2u);
    for (std::size_t idx : in_indices) EXPECT_EQ(graph.edge(idx).dst, 3u);
}

} // namespace
} // namespace seamap
