#include "sched/list_scheduler.h"

#include "taskgraph/mpeg2.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace seamap {
namespace {

constexpr double k_tol = 1e-12;

/// a(1e8) --2e7--> b(1e8)
TaskGraph make_chain() {
    RegisterFile regs;
    TaskGraph graph("chain", std::move(regs));
    const TaskId a = graph.add_task("a", 100'000'000);
    const TaskId b = graph.add_task("b", 100'000'000);
    graph.add_edge(a, b, 20'000'000);
    return graph;
}

MpsocArchitecture make_arch(std::size_t cores) {
    return MpsocArchitecture(cores, VoltageScalingTable::arm7_three_level());
}

TEST(ListScheduler, SingleTaskSingleCore) {
    RegisterFile regs;
    TaskGraph graph("one", std::move(regs));
    graph.add_task("t", 200'000'000);
    const MpsocArchitecture arch = make_arch(1);
    const Mapping mapping = single_core_mapping(graph, 1);
    const Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, {1});
    EXPECT_NEAR(schedule.latency_seconds, 1.0, k_tol); // 2e8 cycles @ 200 MHz
    EXPECT_NEAR(schedule.total_time_seconds, 1.0, k_tol);
    EXPECT_EQ(schedule.core_busy_cycles[0], 200'000'000u);
    EXPECT_NEAR(schedule.utilization[0], 1.0, k_tol);
}

TEST(ListScheduler, ChainSameCoreHasNoCommCost) {
    const TaskGraph graph = make_chain();
    const MpsocArchitecture arch = make_arch(2);
    Mapping mapping(2, 2);
    mapping.assign(0, 0);
    mapping.assign(1, 0);
    const Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, {1, 1});
    EXPECT_NEAR(schedule.entries[0].finish_seconds, 0.5, k_tol);
    EXPECT_NEAR(schedule.entries[1].start_seconds, 0.5, k_tol); // no comm delay
    EXPECT_NEAR(schedule.latency_seconds, 1.0, k_tol);
    EXPECT_EQ(schedule.core_busy_cycles[0], 200'000'000u); // comm not charged
    EXPECT_EQ(schedule.core_busy_cycles[1], 0u);
}

TEST(ListScheduler, ChainCrossCorePaysProducerClockedComm) {
    const TaskGraph graph = make_chain();
    const MpsocArchitecture arch = make_arch(2);
    Mapping mapping(2, 2);
    mapping.assign(0, 0);
    mapping.assign(1, 1);
    // Both cores nominal: comm = 2e7 / 200 MHz = 0.1 s.
    Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, {1, 1});
    EXPECT_NEAR(schedule.entries[1].start_seconds, 0.6, k_tol);
    EXPECT_NEAR(schedule.latency_seconds, 1.1, k_tol);
    // eq. (7): producer pays the transfer.
    EXPECT_EQ(schedule.core_busy_cycles[0], 120'000'000u);
    EXPECT_EQ(schedule.core_busy_cycles[1], 100'000'000u);

    // Slow the producer to level 2 (100 MHz): its exec and the comm
    // transfer both stretch 2x.
    schedule = ListScheduler{}.schedule(graph, mapping, arch, {2, 1});
    EXPECT_NEAR(schedule.entries[0].finish_seconds, 1.0, k_tol);
    EXPECT_NEAR(schedule.entries[1].start_seconds, 1.0 + 0.2, k_tol);
    EXPECT_NEAR(schedule.latency_seconds, 1.7, k_tol);
}

TEST(ListScheduler, DiamondHandComputed) {
    // a(1e8) -> b(1e8), c(2e8); b,c -> d(1e8); comm 2e7 each edge.
    RegisterFile regs;
    TaskGraph graph("diamond", std::move(regs));
    const TaskId a = graph.add_task("a", 100'000'000);
    const TaskId b = graph.add_task("b", 100'000'000);
    const TaskId c = graph.add_task("c", 200'000'000);
    const TaskId d = graph.add_task("d", 100'000'000);
    graph.add_edge(a, b, 20'000'000);
    graph.add_edge(a, c, 20'000'000);
    graph.add_edge(b, d, 20'000'000);
    graph.add_edge(c, d, 20'000'000);

    const MpsocArchitecture arch = make_arch(2);
    Mapping mapping(4, 2);
    mapping.assign(a, 0);
    mapping.assign(b, 0);
    mapping.assign(c, 1);
    mapping.assign(d, 0);
    const Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, {1, 1});
    // a: 0..0.5 on core0, then the a->c transfer occupies core0 until
    // 0.6. c starts at 0.6, runs 1.0 s -> 1.6, then transfers to d
    // until 1.7. b runs 0.6..1.1 on core0 (no transfer for a->b).
    // d waits for c's data: 1.7..2.2.
    EXPECT_NEAR(schedule.entries[a].finish_seconds, 0.5, k_tol);
    EXPECT_NEAR(schedule.entries[c].start_seconds, 0.6, k_tol);
    EXPECT_NEAR(schedule.entries[b].start_seconds, 0.6, k_tol);
    EXPECT_NEAR(schedule.entries[d].start_seconds, 1.7, k_tol);
    EXPECT_NEAR(schedule.latency_seconds, 2.2, k_tol);
}

TEST(ListScheduler, PriorityPrefersCriticalPath) {
    // Two ready tasks on one core: x feeds a long chain, y is a leaf.
    // x must run first even though y has a smaller id... (ids reversed
    // here so priority, not id order, decides).
    RegisterFile regs;
    TaskGraph graph("prio", std::move(regs));
    const TaskId y = graph.add_task("y", 100'000'000); // leaf
    const TaskId x = graph.add_task("x", 100'000'000); // feeds long chain
    const TaskId tail = graph.add_task("tail", 400'000'000);
    graph.add_edge(x, tail, 0);
    const MpsocArchitecture arch = make_arch(2);
    Mapping mapping(3, 2);
    mapping.assign(y, 0);
    mapping.assign(x, 0);
    mapping.assign(tail, 1);
    const Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, {1, 1});
    EXPECT_LT(schedule.entries[x].start_seconds, schedule.entries[y].start_seconds);
}

TEST(ListScheduler, BatchPipeliningUsesBottleneckThroughput) {
    TaskGraph graph = make_chain();
    graph.set_batch_count(10);
    const MpsocArchitecture arch = make_arch(2);
    Mapping mapping(2, 2);
    mapping.assign(0, 0);
    mapping.assign(1, 0);
    const Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, {1, 1});
    // Per-iteration: a 0.05 s + b 0.05 s on one core -> L = 0.1 s,
    // II = busy/B = 1.0/10 = 0.1 s, total = L + 9*II = 1.0 s.
    EXPECT_NEAR(schedule.latency_seconds, 0.1, k_tol);
    EXPECT_NEAR(schedule.initiation_interval_seconds, 0.1, k_tol);
    EXPECT_NEAR(schedule.total_time_seconds, 1.0, k_tol);
    EXPECT_NEAR(schedule.utilization[0], 1.0, k_tol);
}

TEST(ListScheduler, BatchPipeliningBeatsSerialWhenSplit) {
    TaskGraph graph = make_chain();
    graph.set_batch_count(100);
    const MpsocArchitecture arch = make_arch(2);
    Mapping split(2, 2);
    split.assign(0, 0);
    split.assign(1, 1);
    Mapping together(2, 2);
    together.assign(0, 0);
    together.assign(1, 0);
    const Schedule split_schedule = ListScheduler{}.schedule(graph, split, arch, {1, 1});
    const Schedule serial_schedule = ListScheduler{}.schedule(graph, together, arch, {1, 1});
    // Splitting the pipeline stages halves the initiation interval
    // (bottleneck 0.6 s/100 vs 1.0 s/100) despite the comm overhead.
    EXPECT_LT(split_schedule.total_time_seconds, serial_schedule.total_time_seconds);
}

TEST(ListScheduler, RejectsIncompleteMappingAndBadSizes) {
    const TaskGraph graph = make_chain();
    const MpsocArchitecture arch = make_arch(2);
    Mapping incomplete(2, 2);
    incomplete.assign(0, 0);
    EXPECT_THROW((void)ListScheduler{}.schedule(graph, incomplete, arch, {1, 1}),
                 std::invalid_argument);
    Mapping wrong_cores(2, 3);
    wrong_cores.assign(0, 0);
    wrong_cores.assign(1, 1);
    EXPECT_THROW((void)ListScheduler{}.schedule(graph, wrong_cores, arch, {1, 1}),
                 std::invalid_argument);
    const Mapping complete = single_core_mapping(graph, 2);
    EXPECT_THROW((void)ListScheduler{}.schedule(graph, complete, arch, {1}),
                 std::invalid_argument);
    EXPECT_THROW((void)ListScheduler{}.schedule(graph, complete, arch, {9, 1}),
                 std::out_of_range);
}

TEST(ListScheduler, MeetsDeadlineTolerance) {
    Schedule schedule;
    schedule.total_time_seconds = 1.0;
    EXPECT_TRUE(schedule.meets_deadline(1.0));
    EXPECT_TRUE(schedule.meets_deadline(1.0 + 1e-6));
    EXPECT_FALSE(schedule.meets_deadline(0.999));
}

TEST(PerCoreBusyCycles, PartialMappingIsPessimisticAboutComm) {
    const TaskGraph graph = make_chain();
    Mapping partial(2, 2);
    partial.assign(0, 0); // consumer unmapped -> comm charged
    const auto busy = per_core_busy_cycles(graph, partial, 2);
    EXPECT_EQ(busy[0], 120'000'000u);
    EXPECT_EQ(busy[1], 0u);
}

TEST(TmEstimateEq6, HandComputed) {
    const TaskGraph graph = make_chain();
    const MpsocArchitecture arch = make_arch(2);
    Mapping split(2, 2);
    split.assign(0, 0);
    split.assign(1, 1);
    // Total mapped cycles: 1.2e8 + 1e8 = 2.2e8; rate: 2 x 200 MHz.
    EXPECT_NEAR(tm_estimate_eq6_seconds(graph, split, arch, {1, 1}), 0.55, k_tol);
    // Single core: 2e8 cycles at 200 MHz (unused core contributes no rate).
    const Mapping localized = single_core_mapping(graph, 2);
    EXPECT_NEAR(tm_estimate_eq6_seconds(graph, localized, arch, {1, 1}), 1.0, k_tol);
}

TEST(StaticScheduleOrder, MatchesNaiveMinElementSelectionOnMpeg2) {
    // The rank-heap extraction must reproduce the reference
    // selection rule (max b-level, ties by id) exactly; replay it here
    // with the plain min_element scan the production path no longer
    // uses, b-levels recomputed from scratch.
    const TaskGraph graph = mpeg2_decoder_graph();
    const std::size_t n = graph.task_count();

    const auto topo = graph.topological_order();
    std::vector<std::uint64_t> priority(n, 0);
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        std::uint64_t best_child = 0;
        for (std::size_t idx : graph.out_edge_indices(*it)) {
            const Edge& e = graph.edge(idx);
            best_child = std::max(best_child, e.comm_cycles + priority[e.dst]);
        }
        priority[*it] = graph.task(*it).exec_cycles + best_child;
    }

    std::vector<std::size_t> preds(n, 0);
    for (TaskId t = 0; t < n; ++t) preds[t] = graph.in_edge_indices(t).size();
    std::vector<TaskId> ready;
    for (TaskId t = 0; t < n; ++t)
        if (preds[t] == 0) ready.push_back(t);
    std::vector<TaskId> naive;
    while (!ready.empty()) {
        const auto best =
            std::min_element(ready.begin(), ready.end(), [&](TaskId a, TaskId b) {
                if (priority[a] != priority[b]) return priority[a] > priority[b];
                return a < b;
            });
        const TaskId t = *best;
        ready.erase(best);
        naive.push_back(t);
        for (std::size_t idx : graph.out_edge_indices(t)) {
            const Edge& e = graph.edge(idx);
            if (--preds[e.dst] == 0) ready.push_back(e.dst);
        }
    }

    EXPECT_EQ(static_schedule_order(graph), naive);
}

TEST(TmLowerBound, NeverExceedsAchievedScheduleOnMpeg2) {
    const TaskGraph graph = mpeg2_decoder_graph();
    const MpsocArchitecture arch = make_arch(4);
    const ScalingVector levels = {2, 2, 2, 1};
    const double bound = tm_lower_bound_seconds(graph, arch, levels);
    const Schedule rr = ListScheduler{}.schedule(graph, round_robin_mapping(graph, 4), arch,
                                                 levels);
    const Schedule local = ListScheduler{}.schedule(graph, single_core_mapping(graph, 4), arch,
                                                    levels);
    EXPECT_LE(bound, rr.total_time_seconds * (1.0 + 1e-9));
    EXPECT_LE(bound, local.total_time_seconds * (1.0 + 1e-9));
}

} // namespace
} // namespace seamap
