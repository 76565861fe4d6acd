#include "reliability/register_usage.h"

#include "taskgraph/mpeg2.h"

#include <gtest/gtest.h>

#include <array>

namespace seamap {
namespace {

/// Two tasks sharing one register, one private each.
TaskGraph make_shared_pair() {
    RegisterFile regs;
    const RegisterId shared = regs.add_register("shared", 1000);
    const RegisterId pa = regs.add_register("pa", 100);
    const RegisterId pb = regs.add_register("pb", 200);
    TaskGraph graph("pair", std::move(regs));
    graph.add_task("a", 10, std::array{shared, pa});
    graph.add_task("b", 10, std::array{shared, pb});
    graph.add_edge(0, 1, 1);
    return graph;
}

TEST(RegisterUsage, CoLocationSharesRegisters) {
    const TaskGraph graph = make_shared_pair();
    Mapping together(2, 2);
    together.assign(0, 0);
    together.assign(1, 0);
    const auto bits = per_core_register_bits(graph, together, 2);
    EXPECT_EQ(bits[0], 1300u); // shared counted once
    EXPECT_EQ(bits[1], 0u);
    EXPECT_EQ(total_register_bits(graph, together, 2), 1300u);
}

TEST(RegisterUsage, SplittingDuplicatesSharedState) {
    const TaskGraph graph = make_shared_pair();
    Mapping split(2, 2);
    split.assign(0, 0);
    split.assign(1, 1);
    const auto bits = per_core_register_bits(graph, split, 2);
    EXPECT_EQ(bits[0], 1100u);
    EXPECT_EQ(bits[1], 1200u);
    EXPECT_EQ(total_register_bits(graph, split, 2), 2300u); // 1000 duplicated
}

TEST(RegisterUsage, PartialMappingCountsOnlyAssigned) {
    const TaskGraph graph = make_shared_pair();
    Mapping partial(2, 2);
    partial.assign(0, 1);
    const auto bits = per_core_register_bits(graph, partial, 2);
    EXPECT_EQ(bits[0], 0u);
    EXPECT_EQ(bits[1], 1100u);
}

TEST(RegisterUsage, SizeMismatchThrows) {
    const TaskGraph graph = make_shared_pair();
    const Mapping wrong(5, 2);
    EXPECT_THROW((void)per_core_register_bits(graph, wrong, 2), std::invalid_argument);
    Mapping mapping(2, 4);
    mapping.assign(0, 3);
    mapping.assign(1, 3);
    EXPECT_THROW((void)per_core_register_bits(graph, mapping, 2), std::out_of_range);
}

TEST(RegisterUsage, Mpeg2MoreCoresNeverReducesTotal) {
    // Duplication monotonicity on the real workload: spreading the
    // same tasks over more cores cannot reduce the summed usage.
    const TaskGraph graph = mpeg2_decoder_graph();
    const std::uint64_t one_core =
        total_register_bits(graph, single_core_mapping(graph, 1), 1);
    const std::uint64_t two_cores =
        total_register_bits(graph, round_robin_mapping(graph, 2), 2);
    const std::uint64_t four_cores =
        total_register_bits(graph, round_robin_mapping(graph, 4), 4);
    EXPECT_LE(one_core, two_cores);
    EXPECT_LE(two_cores, four_cores);
}

} // namespace
} // namespace seamap
