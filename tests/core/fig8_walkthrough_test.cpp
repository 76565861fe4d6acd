// Integration test replaying the paper's Section IV-B worked example
// (Fig. 8): six tasks, three cores at scalings (1, 2, 2), deadline
// 75 ms. The published narrative:
//   1. InitialSEAMapping seeds core 1 with the source task and grows it
//      along minimum-SEU dependents, spilling the remainder over
//      cores 2 and 3;
//   2. the initial mapping misses the 75 ms deadline;
//   3. the Fig. 7 search's task movements repair it while minimizing
//      the SEUs experienced.
// The figure scan garbles the exact edge list, so we assert the
// *narrative invariants* rather than the exact per-panel placements.
#include "core/initial_mapping.h"
#include "core/optimized_mapping.h"
#include "core/search_strategy.h"
#include "reliability/register_usage.h"

#include "taskgraph/fig8.h"

#include <gtest/gtest.h>

namespace seamap {
namespace {

struct Walkthrough {
    TaskGraph graph = fig8_example_graph();
    MpsocArchitecture arch{3, VoltageScalingTable::arm7_three_level()};
    ScalingVector levels = {1, 2, 2}; // s1=1, s2=2, s3=2 as in the example
    EvaluationContext ctx{graph, arch, levels, SeuEstimator{SerModel{}},
                          k_fig8_deadline_seconds};
};

TEST(Fig8Walkthrough, Stage1SeedsFastCoreWithSourceTask) {
    Walkthrough w;
    const Mapping initial = initial_sea_mapping(w.ctx);
    ASSERT_TRUE(initial.complete());
    EXPECT_EQ(initial.core_of(0), 0u); // t1 on core 1
    EXPECT_EQ(initial.used_core_count(), 3u);
}

TEST(Fig8Walkthrough, Stage1KeepsRegisterSharersTogether) {
    // The greedy's whole point: the mapping it builds must duplicate
    // fewer register bits than dealing tasks round-robin.
    Walkthrough w;
    const Mapping initial = initial_sea_mapping(w.ctx);
    const Mapping rr = round_robin_mapping(w.graph, 3);
    EXPECT_LE(total_register_bits(w.graph, initial, 3),
              total_register_bits(w.graph, rr, 3));
}

TEST(Fig8Walkthrough, Stage2MeetsThe75msDeadline) {
    Walkthrough w;
    const Mapping initial = initial_sea_mapping(w.ctx);
    LocalSearchParams params;
    params.max_iterations = 3'000;
    params.seed = 8;
    const OptimizedMappingStrategy searcher(params);
    const LocalSearchResult result = searcher.search(w.ctx, initial, params.seed);
    ASSERT_TRUE(result.found_feasible) << "a feasible mapping exists for this example";
    EXPECT_LE(result.best_metrics.tm_seconds, k_fig8_deadline_seconds * (1.0 + 1e-9));
}

TEST(Fig8Walkthrough, Stage2NeverIncreasesGammaOfAFeasibleStart) {
    Walkthrough w;
    const Mapping initial = initial_sea_mapping(w.ctx);
    const DesignMetrics initial_metrics = evaluate_design(w.ctx, initial);
    LocalSearchParams params;
    params.max_iterations = 3'000;
    params.seed = 8;
    const LocalSearchResult result =
        OptimizedMappingStrategy(params).search(w.ctx, initial, params.seed);
    ASSERT_TRUE(result.found_feasible);
    if (initial_metrics.feasible) {
        EXPECT_LE(result.best_metrics.gamma, initial_metrics.gamma);
    }
}

TEST(Fig8Walkthrough, OptimizedBeatsEveryNaiveMapping) {
    // The searched design must be no worse (in Gamma, among feasible
    // designs) than the obvious hand mappings: all-on-core-0 and
    // round-robin.
    Walkthrough w;
    LocalSearchParams params;
    params.max_iterations = 4'000;
    params.seed = 8;
    const LocalSearchResult result = OptimizedMappingStrategy(params).search(
        w.ctx, initial_sea_mapping(w.ctx), params.seed);
    ASSERT_TRUE(result.found_feasible);
    for (const Mapping& naive :
         {single_core_mapping(w.graph, 3), round_robin_mapping(w.graph, 3)}) {
        const DesignMetrics metrics = evaluate_design(w.ctx, naive);
        if (metrics.feasible) { EXPECT_LE(result.best_metrics.gamma, metrics.gamma); }
    }
}

TEST(Fig8Walkthrough, FasterCoreCarriesMoreWork) {
    // Core 1 runs at 200 MHz vs 100 MHz for cores 2-3; the optimized
    // design should load it with at least as many busy cycles as the
    // average slow core.
    Walkthrough w;
    LocalSearchParams params;
    params.max_iterations = 4'000;
    params.seed = 8;
    const LocalSearchResult result = OptimizedMappingStrategy(params).search(
        w.ctx, initial_sea_mapping(w.ctx), params.seed);
    ASSERT_TRUE(result.found_feasible);
    const auto busy = per_core_busy_cycles(w.graph, result.best_mapping, 3);
    EXPECT_GE(busy[0], (busy[1] + busy[2]) / 2);
}

} // namespace
} // namespace seamap
