#include "core/initial_mapping.h"
#include "reliability/register_usage.h"

#include "api/scenarios.h"
#include "support/alloc_guard.h"
#include "support/scaling_walker.h"
#include "taskgraph/fig8.h"
#include "taskgraph/mpeg2.h"
#include "tgff/random_graph.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <tuple>

namespace seamap {
namespace {

EvaluationContext make_ctx(const TaskGraph& graph, const MpsocArchitecture& arch,
                           ScalingVector levels, double deadline) {
    return EvaluationContext{graph, arch, std::move(levels), SeuEstimator{SerModel{}}, deadline};
}

TEST(InitialSeaMapping, AlwaysCompleteOnMpeg2) {
    const TaskGraph graph = mpeg2_decoder_graph();
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const auto ctx = make_ctx(graph, arch, {2, 2, 3, 2}, mpeg2_deadline_seconds());
    const Mapping mapping = initial_sea_mapping(ctx);
    EXPECT_TRUE(mapping.complete());
}

TEST(InitialSeaMapping, SingleCoreMapsEverythingToCoreZero) {
    const TaskGraph graph = fig8_example_graph();
    const MpsocArchitecture arch(1, VoltageScalingTable::arm7_three_level());
    const auto ctx = make_ctx(graph, arch, {1}, 1.0);
    const Mapping mapping = initial_sea_mapping(ctx);
    EXPECT_TRUE(mapping.complete());
    EXPECT_EQ(mapping.task_count_on(0), graph.task_count());
}

TEST(InitialSeaMapping, EveryCorePopulatedWhenTasksSuffice) {
    const TaskGraph graph = mpeg2_decoder_graph(); // 11 tasks
    for (std::size_t cores = 2; cores <= 6; ++cores) {
        const MpsocArchitecture arch(cores, VoltageScalingTable::arm7_three_level());
        const auto ctx =
            make_ctx(graph, arch, ScalingVector(cores, 2), mpeg2_deadline_seconds());
        const Mapping mapping = initial_sea_mapping(ctx);
        EXPECT_TRUE(mapping.complete());
        for (CoreId c = 0; c < cores; ++c)
            EXPECT_GT(mapping.task_count_on(c), 0u) << "core " << c << " of " << cores;
    }
}

TEST(InitialSeaMapping, LocalizesSharersBetterThanRoundRobin) {
    // The greedy follows dependency edges by minimum-SEU increment, so
    // on the MPEG-2 decoder it must localize shared registers at least
    // as well as blind round-robin dealing.
    const TaskGraph graph = mpeg2_decoder_graph();
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const auto ctx = make_ctx(graph, arch, {2, 2, 2, 2}, mpeg2_deadline_seconds());
    const Mapping greedy = initial_sea_mapping(ctx);
    const Mapping rr = round_robin_mapping(graph, 4);
    EXPECT_LE(total_register_bits(graph, greedy, 4), total_register_bits(graph, rr, 4));
}

TEST(InitialSeaMapping, RespectsPerCoreTimeBudget) {
    // With a deadline close to the balanced share of work, no core
    // except the overflow (last) core may blow the budget at mapping
    // time.
    const TaskGraph graph = mpeg2_decoder_graph();
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const ScalingVector levels = {1, 1, 1, 1};
    const double total_seconds = static_cast<double>(graph.total_exec_cycles()) / 200e6;
    const double budget = total_seconds / 3.0;
    const auto ctx = make_ctx(graph, arch, levels, budget);
    const Mapping mapping = initial_sea_mapping(ctx);
    ASSERT_TRUE(mapping.complete());
    const auto busy = per_core_busy_cycles(graph, mapping, 4);
    for (std::size_t c = 0; c + 1 < 4; ++c) {
        // The budget check fires *before* each addition, so one task of
        // overshoot is permissible; two is a bug.
        const double busy_seconds = static_cast<double>(busy[c]) / 200e6;
        EXPECT_LT(busy_seconds, budget + 2.0 * total_seconds / 11.0) << "core " << c;
    }
}

TEST(InitialSeaMapping, Fig8ExampleFillsThreeCores) {
    const TaskGraph graph = fig8_example_graph();
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
    const auto ctx = make_ctx(graph, arch, {1, 2, 2}, k_fig8_deadline_seconds);
    const Mapping mapping = initial_sea_mapping(ctx);
    ASSERT_TRUE(mapping.complete());
    for (CoreId c = 0; c < 3; ++c) EXPECT_GT(mapping.task_count_on(c), 0u) << "core " << c;
    // The source task seeds core 0 (the paper's walkthrough).
    EXPECT_EQ(mapping.core_of(0), 0u);
}

/// Fig. 6 over every Fig. 5 slot of one architecture, folded into an
/// FNV-1a 64 digest over each slot's per-task core ids.
struct SlotDigest {
    std::uint64_t slots = 0;
    std::uint64_t digest = 14695981039346656037ULL;
};

SlotDigest digest_every_slot(const MpsocArchitecture& arch,
                             const std::function<EvaluationContext(ScalingVector)>& context_at) {
    SlotDigest out;
    ScalingEnumerator walker(arch.core_count(), arch.scaling_table().level_count());
    while (std::optional<ScalingVector> levels = walker.next()) {
        const Mapping mapping = initial_sea_mapping(context_at(*levels));
        ++out.slots;
        for (CoreId core : mapping.raw()) {
            for (int byte = 0; byte < 4; ++byte) {
                out.digest ^= (core >> (8 * byte)) & 0xffU;
                out.digest *= 1099511628211ULL;
            }
        }
    }
    return out;
}

SlotDigest digest_problem(const Problem& problem) {
    return digest_every_slot(problem.architecture(), [&](ScalingVector levels) {
        return problem.evaluation_context(std::move(levels));
    });
}

void expect_digest(const SlotDigest& got, std::uint64_t slots, std::uint64_t digest,
                   const char* label) {
    EXPECT_EQ(got.slots, slots) << label;
    EXPECT_EQ(got.digest, digest) << label << std::hex << " 0x" << got.digest;
}

TEST(InitialSeaMapping, EverySlotPinned) {
    // Every Fig. 5 slot's greedy mapping, core id by core id: a rewrite
    // of initial_sea_mapping meant to be byte-identical (fill order,
    // candidate scoring, queue discipline) must leave every digest
    // unchanged.
    const TaskGraph mpeg2 = mpeg2_decoder_graph();
    const std::uint64_t mpeg2_pins[][3] = {
        {1, 3, 0xb189d2cab7927df5ULL},
        {2, 6, 0x62f4f239941fd584ULL},
        {4, 15, 0xe7d519d8451f2505ULL},
        {6, 28, 0xa38650a7e0045d45ULL}};
    for (const auto& [cores, slots, digest] : mpeg2_pins) {
        const MpsocArchitecture arch(cores, VoltageScalingTable::arm7_three_level());
        const SlotDigest got = digest_every_slot(arch, [&](ScalingVector levels) {
            return make_ctx(mpeg2, arch, std::move(levels), mpeg2_deadline_seconds());
        });
        expect_digest(got, slots, digest, ("mpeg2 x" + std::to_string(cores)).c_str());
    }
    expect_digest(digest_problem(prunable_pipeline_problem(8)), 165, 0x2d962dcde820af15ULL,
                  "prunable 8");
    expect_digest(digest_problem(scale_acceptance_problem()), 20349, 0x2a58dae3507b35d1ULL,
                  "acceptance");
    expect_digest(digest_problem(scale_problem(1000, 16, 3, 1)), 153, 0xf078618b40bed2f3ULL,
                  "scale 1000");
}

TEST(InitialSeaMapping, AllocationsDoNotGrowWithTasks) {
    // One call sizes its own buffers once (the mapping, Q, its flags and
    // the register scratch: one allocation each) and the per-core fill
    // step allocates nothing, so the bound holds on 11 tasks and on 1000.
    if (!seamap::testing::counting_allocator_active()) {
        ASSERT_FALSE(SEAMAP_ALLOC_GUARD_EXPECTED_ACTIVE)
            << "counting allocator not linked in a non-sanitized build";
        GTEST_SKIP() << "allocation guard inactive under sanitizers";
    }
    constexpr std::uint64_t k_max_allocations = 4;
    const TaskGraph mpeg2 = mpeg2_decoder_graph();
    const MpsocArchitecture mpeg2_arch(4, VoltageScalingTable::arm7_three_level());
    const auto mpeg2_ctx = make_ctx(mpeg2, mpeg2_arch, {2, 2, 3, 2}, mpeg2_deadline_seconds());
    const Problem scale = scale_problem(1000, 16, 3, 1);
    const EvaluationContext scale_ctx = scale.evaluation_context(ScalingVector(16, 1));
    for (const EvaluationContext* ctx : {&mpeg2_ctx, &scale_ctx}) {
        const seamap::testing::AllocationGuard guard;
        const Mapping mapping = initial_sea_mapping(*ctx);
        EXPECT_LE(guard.allocations(), k_max_allocations) << ctx->graph.task_count() << " tasks";
        EXPECT_TRUE(mapping.complete());
    }
}

/// Property sweep over random graphs and core counts: the greedy must
/// always return a complete mapping that uses every core when N >= C.
class InitialMappingProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(InitialMappingProperty, CompleteAndAllCoresUsed) {
    const auto [task_count, core_count, seed] = GetParam();
    TgffParams params;
    params.task_count = task_count;
    const TaskGraph graph = generate_tgff_graph(params, seed);
    const MpsocArchitecture arch(core_count, VoltageScalingTable::arm7_three_level());
    const auto ctx = make_ctx(graph, arch, ScalingVector(core_count, 2),
                              paper_tgff_deadline_seconds(task_count));
    const Mapping mapping = initial_sea_mapping(ctx);
    EXPECT_TRUE(mapping.complete());
    if (task_count < core_count) return;
    for (CoreId c = 0; c < core_count; ++c)
        EXPECT_GT(mapping.task_count_on(c), 0u) << "core " << c;
}

INSTANTIATE_TEST_SUITE_P(
    GraphGrid, InitialMappingProperty,
    ::testing::Combine(::testing::Values<std::size_t>(6, 20, 40),
                       ::testing::Values<std::size_t>(2, 4, 6),
                       ::testing::Values<std::uint64_t>(1, 2, 3)),
    [](const ::testing::TestParamInfo<InitialMappingProperty::ParamType>& param_info) {
        std::string label; label += "n"; label += std::to_string(std::get<0>(param_info.param)); label += "_c"; label += std::to_string(std::get<1>(param_info.param)); label += "_s"; label += std::to_string(std::get<2>(param_info.param)); return label;
    });

} // namespace
} // namespace seamap
