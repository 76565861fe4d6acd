#include "baseline/simulated_annealing.h"

#include "taskgraph/mpeg2.h"
#include "tgff/random_graph.h"

#include <gtest/gtest.h>

namespace seamap {
namespace {

struct Fixture {
    TaskGraph graph = mpeg2_decoder_graph();
    MpsocArchitecture arch{4, VoltageScalingTable::arm7_three_level()};
    ScalingVector levels = {2, 2, 3, 2}; // Table II's Exp:4 scaling
    SeuEstimator estimator{SerModel{}};
    EvaluationContext ctx{graph, arch, levels, estimator, mpeg2_deadline_seconds()};
};

LocalSearchParams quick_params(std::uint64_t seed = 1) {
    LocalSearchParams params;
    params.max_iterations = 3'000;
    params.seed = seed;
    return params;
}

TEST(SimulatedAnnealing, FindsFeasibleDesignOnMpeg2) {
    Fixture f;
    const AnnealingStrategy mapper(quick_params(), MappingObjective::makespan);
    const LocalSearchResult result = mapper.search(f.ctx, round_robin_mapping(f.graph, 4), 1);
    EXPECT_TRUE(result.found_feasible);
    EXPECT_TRUE(result.best_metrics.feasible);
    EXPECT_TRUE(result.best_mapping.complete());
    EXPECT_EQ(result.iterations_run, 3'000u);
    EXPECT_GT(result.improvements, 0u);
}

TEST(SimulatedAnnealing, ImprovesObjectiveOverInitial) {
    Fixture f;
    const Mapping initial = round_robin_mapping(f.graph, 4);
    const DesignMetrics initial_metrics = evaluate_design(f.ctx, initial);
    for (const MappingObjective objective :
         {MappingObjective::register_usage, MappingObjective::makespan,
          MappingObjective::time_register_product, MappingObjective::seu_count}) {
        const LocalSearchResult result =
            AnnealingStrategy(quick_params(), objective).search(f.ctx, initial, 1);
        ASSERT_TRUE(result.found_feasible) << "objective " << static_cast<int>(objective);
        EXPECT_LE(objective_value(objective, result.best_metrics),
                  objective_value(objective, initial_metrics))
            << "objective " << static_cast<int>(objective);
    }
}

TEST(SimulatedAnnealing, ObjectivesPullInTheirOwnDirections) {
    // Minimizing R must land at (weakly) lower R than minimizing T_M,
    // and vice versa — the Exp:1 vs Exp:2 contrast of Table II.
    Fixture f;
    const Mapping initial = round_robin_mapping(f.graph, 4);
    LocalSearchParams params = quick_params(3);
    params.max_iterations = 8'000;
    const LocalSearchResult min_r =
        AnnealingStrategy(params, MappingObjective::register_usage).search(f.ctx, initial, 3);
    const LocalSearchResult min_tm =
        AnnealingStrategy(params, MappingObjective::makespan).search(f.ctx, initial, 3);
    ASSERT_TRUE(min_r.found_feasible);
    ASSERT_TRUE(min_tm.found_feasible);
    EXPECT_LE(min_r.best_metrics.register_bits, min_tm.best_metrics.register_bits);
    EXPECT_LE(min_tm.best_metrics.tm_seconds, min_r.best_metrics.tm_seconds);
}

TEST(SimulatedAnnealing, DeterministicGivenSeed) {
    Fixture f;
    const AnnealingStrategy mapper(quick_params(17), MappingObjective::seu_count);
    const Mapping initial = round_robin_mapping(f.graph, 4);
    const LocalSearchResult a = mapper.search(f.ctx, initial, 17);
    const LocalSearchResult b = mapper.search(f.ctx, initial, 17);
    EXPECT_EQ(a.best_mapping, b.best_mapping);
    EXPECT_DOUBLE_EQ(a.best_metrics.gamma, b.best_metrics.gamma);
}

TEST(SimulatedAnnealing, ImpossibleDeadlineReportsClosestDesign) {
    Fixture f;
    EvaluationContext tight{f.graph, f.arch, f.levels, f.estimator, 1e-6};
    const AnnealingStrategy mapper(quick_params(), MappingObjective::seu_count);
    const LocalSearchResult result = mapper.search(tight, round_robin_mapping(f.graph, 4), 1);
    EXPECT_FALSE(result.found_feasible);
    EXPECT_FALSE(result.best_metrics.feasible);
    EXPECT_GT(result.best_metrics.tm_seconds, 0.0);
}

TEST(SimulatedAnnealing, SmallRandomGraphAcrossObjectives) {
    TgffParams params;
    params.task_count = 12;
    const TaskGraph graph = generate_tgff_graph(params, 5);
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
    const EvaluationContext ctx{graph, arch, {1, 1, 1}, SeuEstimator{SerModel{}}, 1e9};
    const AnnealingStrategy mapper(quick_params(9), MappingObjective::seu_count);
    const LocalSearchResult result = mapper.search(ctx, round_robin_mapping(graph, 3), 9);
    EXPECT_TRUE(result.found_feasible); // deadline effectively unconstrained
}

TEST(SimulatedAnnealing, IncompleteInitialThrows) {
    Fixture f;
    const AnnealingStrategy mapper(quick_params(), MappingObjective::seu_count);
    const Mapping incomplete(f.graph.task_count(), 4);
    EXPECT_THROW((void)mapper.search(f.ctx, incomplete, 1), std::invalid_argument);
}

TEST(SimulatedAnnealing, ParameterValidation) {
    LocalSearchParams params;
    params.max_iterations = 0;
    EXPECT_THROW(AnnealingStrategy{params}, std::invalid_argument);
    params = LocalSearchParams{};
    params.swap_probability = 1.5;
    EXPECT_THROW(AnnealingStrategy{params}, std::invalid_argument);
}

} // namespace
} // namespace seamap
