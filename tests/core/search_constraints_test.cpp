// Tests for the search-policy knobs added on top of the paper's plain
// Fig. 7 loop: the all-cores-populated constraint (paper Tables II/III
// keep every core busy) and multi-restart budgeting.
#include "baseline/simulated_annealing.h"
#include "core/initial_mapping.h"
#include "core/optimized_mapping.h"

#include "taskgraph/mpeg2.h"

#include <gtest/gtest.h>

namespace seamap {
namespace {

struct Fixture {
    TaskGraph graph = mpeg2_decoder_graph();
    MpsocArchitecture arch{4, VoltageScalingTable::arm7_three_level()};
    ScalingVector levels = {2, 2, 2, 2};
    EvaluationContext ctx{graph, arch, levels, SeuEstimator{SerModel{}},
                          mpeg2_deadline_seconds()};
};

TEST(RequireAllCores, LocalSearchKeepsEveryCorePopulated) {
    Fixture f;
    LocalSearchParams params;
    params.max_iterations = 3'000;
    params.require_all_cores = true;
    params.seed = 4;
    const LocalSearchResult result =
        OptimizedMapping(params).optimize(f.ctx, initial_sea_mapping(f.ctx));
    ASSERT_TRUE(result.found_feasible);
    EXPECT_EQ(result.best_mapping.used_core_count(), 4u);
}

TEST(RequireAllCores, SimulatedAnnealingKeepsEveryCorePopulated) {
    Fixture f;
    LocalSearchParams params;
    params.max_iterations = 3'000;
    params.require_all_cores = true;
    params.seed = 4;
    const LocalSearchResult result = SimulatedAnnealingMapper(params).optimize(
        f.ctx, MappingObjective::seu_count, round_robin_mapping(f.graph, 4));
    ASSERT_TRUE(result.found_feasible);
    EXPECT_EQ(result.best_mapping.used_core_count(), 4u);
}

TEST(RequireAllCores, OffAllowsCoreShutdown) {
    // Without the constraint the Gamma-minimizing search is free to
    // consolidate tasks; on the MPEG-2 decoder at a loose deadline the
    // best designs leave at least one core empty on some seeds. We only
    // assert the knob is permissive, not that shutdown always happens.
    Fixture f;
    LocalSearchParams params;
    params.max_iterations = 3'000;
    params.require_all_cores = false;
    params.seed = 4;
    const LocalSearchResult result =
        OptimizedMapping(params).optimize(f.ctx, initial_sea_mapping(f.ctx));
    ASSERT_TRUE(result.found_feasible);
    EXPECT_LE(result.best_mapping.used_core_count(), 4u);
}

TEST(RequireAllCores, PopulationPreservedFromAllCoreStart) {
    // From a start that uses every core, a long constrained walk must
    // never pass through (and so never return) a mapping with an empty
    // core, across several seeds.
    Fixture f;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        LocalSearchParams params;
        params.max_iterations = 1'000;
        params.require_all_cores = true;
        params.seed = seed;
        const LocalSearchResult result =
            OptimizedMapping(params).optimize(f.ctx, round_robin_mapping(f.graph, 4));
        EXPECT_EQ(result.best_mapping.used_core_count(), 4u) << "seed " << seed;
    }
}

TEST(Restarts, SingleRestartIsPlainWalk) {
    Fixture f;
    LocalSearchParams params;
    params.max_iterations = 2'000;
    params.restarts = 1;
    params.seed = 9;
    const LocalSearchResult result =
        OptimizedMapping(params).optimize(f.ctx, initial_sea_mapping(f.ctx));
    EXPECT_TRUE(result.found_feasible);
    EXPECT_EQ(result.iterations_run, 2'000u);
}

TEST(Restarts, ManyRestartsStillRespectBudgetAndFindFeasible) {
    Fixture f;
    LocalSearchParams params;
    params.max_iterations = 2'000;
    params.restarts = 8;
    params.seed = 9;
    const LocalSearchResult result =
        OptimizedMapping(params).optimize(f.ctx, initial_sea_mapping(f.ctx));
    EXPECT_TRUE(result.found_feasible);
    EXPECT_EQ(result.iterations_run, 2'000u);
}

TEST(Restarts, NeverWorseThanInitialDesign) {
    // Start from round-robin: balanced, hence feasible at this loose
    // deadline (the greedy initial intentionally packs core 0 up to the
    // budget and may overshoot — that is stage 2's job to fix).
    Fixture f;
    const Mapping initial = round_robin_mapping(f.graph, 4);
    const DesignMetrics initial_metrics = evaluate_design(f.ctx, initial);
    ASSERT_TRUE(initial_metrics.feasible);
    for (const std::uint64_t restarts : {1ULL, 3ULL, 6ULL}) {
        LocalSearchParams params;
        params.max_iterations = 1'500;
        params.restarts = restarts;
        params.seed = 11;
        const LocalSearchResult result = OptimizedMapping(params).optimize(f.ctx, initial);
        ASSERT_TRUE(result.found_feasible) << restarts << " restarts";
        EXPECT_LE(result.best_metrics.gamma, initial_metrics.gamma) << restarts << " restarts";
    }
}

} // namespace
} // namespace seamap
