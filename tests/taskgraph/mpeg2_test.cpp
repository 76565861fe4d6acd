// Checks that the MPEG-2 decoder model reproduces every number the
// paper publishes about it: Fig. 2 node/edge costs and the Section III
// register-sharing facts.
#include "taskgraph/mpeg2.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

namespace seamap {
namespace {

TEST(Mpeg2, ElevenTasksWithFig2Costs) {
    const TaskGraph graph = mpeg2_decoder_graph();
    ASSERT_EQ(graph.task_count(), 11u);
    const std::array<std::uint64_t, 11> units = {10, 15, 16, 31, 25, 39, 63, 61, 48, 41, 21};
    for (TaskId t = 0; t < 11; ++t)
        EXPECT_EQ(graph.task(t).exec_cycles, units[t] * k_mpeg2_cost_unit) << "task " << t;
}

TEST(Mpeg2, EdgeCostMultisetMatchesFig2) {
    const TaskGraph graph = mpeg2_decoder_graph();
    ASSERT_EQ(graph.edge_count(), 11u);
    std::vector<std::uint64_t> units;
    for (const Edge& e : graph.edges()) units.push_back(e.comm_cycles / k_mpeg2_cost_unit);
    std::sort(units.begin(), units.end());
    const std::vector<std::uint64_t> expected = {1, 2, 2, 2, 2, 3, 3, 4, 4, 4, 4};
    EXPECT_EQ(units, expected);
}

TEST(Mpeg2, IsValidDagWithSingleSourceAndSink) {
    const TaskGraph graph = mpeg2_decoder_graph();
    EXPECT_NO_THROW(graph.validate());
    EXPECT_EQ(graph.source_tasks().size(), 1u);
    EXPECT_EQ(graph.source_tasks().front(), 0u); // decode_header_sequences
    EXPECT_EQ(graph.sink_tasks().size(), 1u);
    EXPECT_EQ(graph.sink_tasks().front(), 10u); // store_display_frame
}

TEST(Mpeg2, BatchCountIsFrameCount) {
    const TaskGraph graph = mpeg2_decoder_graph();
    EXPECT_EQ(graph.batch_count(), 437u);
}

TEST(Mpeg2, DeadlineMatches29_97Fps) {
    EXPECT_NEAR(mpeg2_deadline_seconds(), 437.0 / 29.97, 1e-12);
    EXPECT_NEAR(mpeg2_deadline_seconds(), 14.581, 1e-3);
}

// Section III: "the tasks t5 and t6 share nearly 6.4kb registers".
// (Paper tasks are 1-based; graph ids are 0-based.)
TEST(Mpeg2, T5T6Share6400Bits) {
    const TaskGraph graph = mpeg2_decoder_graph();
    EXPECT_EQ(graph.union_register_bits(std::array<TaskId, 2>{4, 5}),
              graph.task_register_bits(4) + graph.task_register_bits(5) - 6'400u);
}

// Section III: "the tasks t6, t7 and t8 share about 8kb registers
// among them".
TEST(Mpeg2, T6T7T8Share8000Bits) {
    const TaskGraph graph = mpeg2_decoder_graph();
    RegisterSet triple = graph.task(5).registers;
    triple &= graph.task(6).registers;
    triple &= graph.task(7).registers;
    EXPECT_EQ(triple.bits_in(graph.register_file()), 8'000u);
}

// Section III: mapping {t5,t6} and {t7,t8} on different cores
// "gives a duplication of about 14.4kb registers between the cores".
TEST(Mpeg2, SplittingBlockChainDuplicates14400Bits) {
    const TaskGraph graph = mpeg2_decoder_graph();
    const std::array<TaskId, 2> first = {4, 5};
    const std::array<TaskId, 2> second = {6, 7};
    RegisterSet duplicated = graph.union_register_set(first);
    duplicated &= graph.union_register_set(second);
    EXPECT_EQ(duplicated.bits_in(graph.register_file()), 14'400u);
}

TEST(Mpeg2, SingleCoreRegisterFloorBracketsTableII) {
    // Table II reports 4-core register usage between 80 and 118
    // kbit/cycle; the single-core union is the absolute floor and the
    // all-spread sum the ceiling — the Table II range must lie between.
    const TaskGraph graph = mpeg2_decoder_graph();
    std::vector<TaskId> all(graph.task_count());
    for (TaskId t = 0; t < graph.task_count(); ++t) all[t] = t;
    const double floor_kb = static_cast<double>(graph.union_register_bits(all)) / 1000.0;
    double ceiling_kb = 0.0;
    for (TaskId t = 0; t < graph.task_count(); ++t)
        ceiling_kb += static_cast<double>(graph.task_register_bits(t)) / 1000.0;
    EXPECT_LT(floor_kb, 80.0);
    EXPECT_GT(ceiling_kb, 118.0);
}

TEST(Mpeg2, CriticalPathAllowsRealTimeDecodeAtNominal) {
    // The decode must be feasible on one nominal core: total work at
    // 200 MHz must fit in the 14.58 s budget (the paper's experiments
    // all start from feasible single-chain decodes).
    const TaskGraph graph = mpeg2_decoder_graph();
    const double single_core_seconds =
        static_cast<double>(graph.total_exec_cycles()) / 200e6;
    EXPECT_LT(single_core_seconds, mpeg2_deadline_seconds());
}

} // namespace
} // namespace seamap
