#include "core/optimized_mapping.h"

#include "core/initial_mapping.h"
#include "taskgraph/mpeg2.h"

#include <gtest/gtest.h>

namespace seamap {
namespace {

struct Fixture {
    TaskGraph graph = mpeg2_decoder_graph();
    MpsocArchitecture arch{4, VoltageScalingTable::arm7_three_level()};
    ScalingVector levels = {2, 2, 3, 2};
    EvaluationContext ctx{graph, arch, levels, SeuEstimator{SerModel{}},
                          mpeg2_deadline_seconds()};
};

LocalSearchParams quick_params(std::uint64_t seed = 1) {
    LocalSearchParams params;
    params.max_iterations = 2'000;
    params.seed = seed;
    return params;
}

TEST(OptimizedMapping, NeverWorseThanFeasibleInitial) {
    Fixture f;
    const Mapping initial = initial_sea_mapping(f.ctx);
    const DesignMetrics initial_metrics = evaluate_design(f.ctx, initial);
    const OptimizedMapping searcher(quick_params());
    const LocalSearchResult result = searcher.optimize(f.ctx, initial);
    ASSERT_TRUE(result.found_feasible);
    if (initial_metrics.feasible) { EXPECT_LE(result.best_metrics.gamma, initial_metrics.gamma); }
    EXPECT_TRUE(result.best_metrics.feasible);
    EXPECT_TRUE(result.best_mapping.complete());
}

TEST(OptimizedMapping, RunsExactlyTheIterationBudget) {
    Fixture f;
    const OptimizedMapping searcher(quick_params());
    const LocalSearchResult result = searcher.optimize(f.ctx, initial_sea_mapping(f.ctx));
    EXPECT_EQ(result.iterations_run, 2'000u);
}

TEST(OptimizedMapping, DeterministicGivenSeed) {
    Fixture f;
    const Mapping initial = initial_sea_mapping(f.ctx);
    const OptimizedMapping searcher(quick_params(23));
    const LocalSearchResult a = searcher.optimize(f.ctx, initial);
    const LocalSearchResult b = searcher.optimize(f.ctx, initial);
    EXPECT_EQ(a.best_mapping, b.best_mapping);
    EXPECT_DOUBLE_EQ(a.best_metrics.gamma, b.best_metrics.gamma);
}

TEST(OptimizedMapping, ImpossibleDeadlineReturnsClosestDesign) {
    Fixture f;
    EvaluationContext tight{f.graph, f.arch, f.levels, SeuEstimator{SerModel{}}, 1e-6};
    const OptimizedMapping searcher(quick_params());
    const LocalSearchResult result = searcher.optimize(tight, initial_sea_mapping(tight));
    EXPECT_FALSE(result.found_feasible);
    EXPECT_FALSE(result.best_metrics.feasible);
}

TEST(OptimizedMapping, RecoversFeasibilityFromBadStart) {
    // All tasks on one slow core misses the deadline; the search must
    // find its way to a feasible distribution.
    Fixture f;
    const Mapping localized = single_core_mapping(f.graph, 4);
    const DesignMetrics start = evaluate_design(f.ctx, localized);
    ASSERT_FALSE(start.feasible) << "fixture assumption: 1 core at level 2 is too slow";
    LocalSearchParams params = quick_params(5);
    params.max_iterations = 6'000;
    const OptimizedMapping searcher(params);
    const LocalSearchResult result = searcher.optimize(f.ctx, localized);
    EXPECT_TRUE(result.found_feasible);
}

TEST(OptimizedMapping, TokenDeadlineStopsSearch) {
    Fixture f;
    LocalSearchParams params;
    params.max_iterations = 4'000'000'000; // far beyond the deadline
    const OptimizedMapping searcher(params);
    CancellationToken cancel;
    cancel.set_budget_seconds(0.05);
    const auto start = std::chrono::steady_clock::now();
    const LocalSearchResult result =
        searcher.optimize(f.ctx, initial_sea_mapping(f.ctx), &cancel);
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed.count(), 2.0); // generous: the deadline is 50 ms
    EXPECT_GT(result.iterations_run, 0u);
    EXPECT_LT(result.iterations_run, params.max_iterations);
}

TEST(OptimizedMapping, Validation) {
    Fixture f;
    LocalSearchParams params;
    params.max_iterations = 0;
    EXPECT_THROW(OptimizedMapping{params}, std::invalid_argument);
    params = LocalSearchParams{};
    params.swap_probability = -0.1;
    EXPECT_THROW(OptimizedMapping{params}, std::invalid_argument);

    const OptimizedMapping searcher(quick_params());
    const Mapping incomplete(f.graph.task_count(), 4);
    EXPECT_THROW((void)searcher.optimize(f.ctx, incomplete), std::invalid_argument);
}

} // namespace
} // namespace seamap
