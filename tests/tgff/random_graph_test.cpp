#include "tgff/random_graph.h"

#include <gtest/gtest.h>

#include <array>
#include <set>

namespace seamap {
namespace {

TEST(Tgff, DeterministicForSameSeed) {
    const TgffParams params;
    const TaskGraph a = generate_tgff_graph(params, 42);
    const TaskGraph b = generate_tgff_graph(params, 42);
    ASSERT_EQ(a.task_count(), b.task_count());
    ASSERT_EQ(a.edge_count(), b.edge_count());
    for (TaskId t = 0; t < a.task_count(); ++t) {
        EXPECT_EQ(a.task(t).exec_cycles, b.task(t).exec_cycles);
        EXPECT_EQ(a.task(t).registers, b.task(t).registers);
    }
    for (std::size_t e = 0; e < a.edge_count(); ++e) {
        EXPECT_EQ(a.edge(e).src, b.edge(e).src);
        EXPECT_EQ(a.edge(e).dst, b.edge(e).dst);
        EXPECT_EQ(a.edge(e).comm_cycles, b.edge(e).comm_cycles);
    }
}

TEST(Tgff, DifferentSeedsDiffer) {
    const TgffParams params;
    const TaskGraph a = generate_tgff_graph(params, 1);
    const TaskGraph b = generate_tgff_graph(params, 2);
    bool any_difference = a.edge_count() != b.edge_count();
    for (TaskId t = 0; !any_difference && t < a.task_count(); ++t)
        any_difference = a.task(t).exec_cycles != b.task(t).exec_cycles;
    EXPECT_TRUE(any_difference);
}

/// Parameterized over graph size: structural invariants of the
/// generator for the paper's 20..100-task range.
class TgffSizes : public testing::TestWithParam<std::size_t> {};

TEST_P(TgffSizes, StructuralInvariants) {
    TgffParams params;
    params.task_count = GetParam();
    const TaskGraph graph = generate_tgff_graph(params, 7);

    ASSERT_EQ(graph.task_count(), params.task_count);
    EXPECT_NO_THROW(graph.validate()); // acyclic, nonempty

    // Costs are in-range multiples of the cost unit.
    for (TaskId t = 0; t < graph.task_count(); ++t) {
        const std::uint64_t units = graph.task(t).exec_cycles / params.cost_unit;
        EXPECT_EQ(graph.task(t).exec_cycles % params.cost_unit, 0u);
        EXPECT_GE(units, params.comp_cost_min);
        EXPECT_LE(units, params.comp_cost_max);
    }
    for (const Edge& e : graph.edges()) {
        const std::uint64_t units = e.comm_cycles / params.cost_unit;
        EXPECT_EQ(e.comm_cycles % params.cost_unit, 0u);
        EXPECT_GE(units, params.comm_cost_min);
        EXPECT_LE(units, params.comm_cost_max);
        EXPECT_LT(e.src, e.dst); // forward edges only
    }

    // Connectivity: every non-root task has a predecessor.
    for (TaskId t = 1; t < graph.task_count(); ++t)
        EXPECT_FALSE(graph.in_edge_indices(t).empty()) << "orphan task " << t;

    // Out-degree cap N/2.
    const std::size_t cap = params.task_count / 2;
    for (TaskId t = 0; t < graph.task_count(); ++t)
        EXPECT_LE(graph.successors(t).size(), cap);

    // Per-task register budget: buffer + local within [min, max].
    for (TaskId t = 0; t < graph.task_count(); ++t) {
        std::uint64_t own_bits = graph.register_file().bits(2 * t) +
                                 graph.register_file().bits(2 * t + 1);
        EXPECT_GE(own_bits, params.register_bits_min);
        EXPECT_LE(own_bits, params.register_bits_max);
    }
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, TgffSizes,
                         testing::Values<std::size_t>(5, 20, 40, 60, 80, 100),
                         [](const testing::TestParamInfo<std::size_t>& param_info) {
                             std::string label; label += "n"; label += std::to_string(param_info.param); return label;
                         });

TEST(Tgff, ProducerConsumerShareOutputBuffer) {
    TgffParams params;
    params.task_count = 30;
    const TaskGraph graph = generate_tgff_graph(params, 11);
    for (const Edge& e : graph.edges())
        EXPECT_LT(graph.union_register_bits(std::array<TaskId, 2>{e.src, e.dst}),
                  graph.task_register_bits(e.src) + graph.task_register_bits(e.dst))
            << "edge " << e.src << "->" << e.dst << " shares no registers";
}

TEST(Tgff, SiblingsShareTheProducersBuffer) {
    TgffParams params;
    params.task_count = 40;
    params.out_degree_mean = 3.0;
    const TaskGraph graph = generate_tgff_graph(params, 3);
    // Find a task with >= 2 consumers; they must overlap pairwise via
    // the producer's output buffer.
    bool found = false;
    for (TaskId t = 0; t < graph.task_count() && !found; ++t) {
        const auto succ = graph.successors(t);
        if (succ.size() >= 2) {
            EXPECT_LT(graph.union_register_bits(std::array<TaskId, 2>{succ[0], succ[1]}),
                      graph.task_register_bits(succ[0]) + graph.task_register_bits(succ[1]));
            found = true;
        }
    }
    EXPECT_TRUE(found) << "generator produced no fan-out at mean degree 3";
}

TEST(Tgff, ZeroOutDegreeMeanYieldsChainlikeFallback) {
    TgffParams params;
    params.task_count = 10;
    params.out_degree_mean = 0.0; // only connectivity edges remain
    const TaskGraph graph = generate_tgff_graph(params, 9);
    EXPECT_EQ(graph.edge_count(), 9u); // one parent per non-root task
    EXPECT_NO_THROW(graph.validate());
}

TEST(Tgff, BatchCountPropagates) {
    TgffParams params;
    params.batch_count = 25;
    const TaskGraph graph = generate_tgff_graph(params, 1);
    EXPECT_EQ(graph.batch_count(), 25u);
}

TEST(Tgff, ParameterValidation) {
    TgffParams params;
    params.task_count = 0;
    EXPECT_THROW((void)generate_tgff_graph(params, 1), std::invalid_argument);
    params = TgffParams{};
    params.comp_cost_min = 10;
    params.comp_cost_max = 5;
    EXPECT_THROW((void)generate_tgff_graph(params, 1), std::invalid_argument);
    params = TgffParams{};
    params.comm_cost_min = 0;
    EXPECT_THROW((void)generate_tgff_graph(params, 1), std::invalid_argument);
    params = TgffParams{};
    params.register_bits_min = 0;
    EXPECT_THROW((void)generate_tgff_graph(params, 1), std::invalid_argument);
    params = TgffParams{};
    params.out_degree_mean = -1.0;
    EXPECT_THROW((void)generate_tgff_graph(params, 1), std::invalid_argument);
    params = TgffParams{};
    params.max_out_degree_fraction = 1.5;
    EXPECT_THROW((void)generate_tgff_graph(params, 1), std::invalid_argument);
    params = TgffParams{};
    params.output_buffer_fraction = 1.0;
    EXPECT_THROW((void)generate_tgff_graph(params, 1), std::invalid_argument);
    params = TgffParams{};
    params.batch_count = 0;
    EXPECT_THROW((void)generate_tgff_graph(params, 1), std::invalid_argument);
}

TEST(Tgff, PaperDeadlineRule) {
    // 1000 * N/2 ms.
    EXPECT_DOUBLE_EQ(paper_tgff_deadline_seconds(20), 10.0);
    EXPECT_DOUBLE_EQ(paper_tgff_deadline_seconds(100), 50.0);
}

TEST(Tgff, SingleTaskGraphIsValid) {
    TgffParams params;
    params.task_count = 1;
    const TaskGraph graph = generate_tgff_graph(params, 4);
    EXPECT_EQ(graph.task_count(), 1u);
    EXPECT_EQ(graph.edge_count(), 0u);
    EXPECT_NO_THROW(graph.validate());
}

} // namespace
} // namespace seamap
