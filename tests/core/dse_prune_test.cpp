// The branch-and-bound explorer's contract (core/dse.h): pruning may
// drop provably dominated scalings from the searched set, but `best`
// and `pareto_front` stay BYTE-IDENTICAL to the exhaustive sweep at
// every thread count, and with pruning on the whole result (counters,
// feasible points, prune decisions) is a pure function of the problem
// — identical at every thread count. Randomized across the repo's
// three workload families plus a deliberately prunable scenario where
// the bound-driven skips must actually fire.
#include "seamap/seamap.h"

#include "api/scenarios.h"
#include "taskgraph/fig8.h"
#include "taskgraph/mpeg2.h"
#include "tgff/random_graph.h"

#include <gtest/gtest.h>
#include <string>
#include <vector>

namespace seamap {
namespace {

std::string best_json(const DseResult& result) {
    return result.best ? to_json(*result.best).dump() : "null";
}

std::string front_json(const DseResult& result) {
    JsonValue front = JsonValue::array();
    for (const DsePoint& point : result.pareto_front) front.push_back(to_json(point));
    return front.dump();
}

void expect_point_identical(const DsePoint& a, const DsePoint& b) {
    EXPECT_EQ(a.levels, b.levels);
    EXPECT_EQ(a.mapping, b.mapping);
    EXPECT_EQ(a.metrics.tm_seconds, b.metrics.tm_seconds);
    EXPECT_EQ(a.metrics.gamma, b.metrics.gamma);
    EXPECT_EQ(a.metrics.power_mw, b.metrics.power_mw);
}

void expect_result_identical(const DseResult& a, const DseResult& b) {
    EXPECT_EQ(a.scalings_total, b.scalings_total);
    EXPECT_EQ(a.scalings_enumerated, b.scalings_enumerated);
    EXPECT_EQ(a.scalings_skipped_infeasible, b.scalings_skipped_infeasible);
    EXPECT_EQ(a.scalings_emitted, b.scalings_emitted);
    EXPECT_EQ(a.scalings_pruned, b.scalings_pruned);
    EXPECT_EQ(a.scalings_searched, b.scalings_searched);
    ASSERT_EQ(a.feasible_points.size(), b.feasible_points.size());
    for (std::size_t i = 0; i < a.feasible_points.size(); ++i)
        expect_point_identical(a.feasible_points[i], b.feasible_points[i]);
    ASSERT_EQ(a.pareto_front.size(), b.pareto_front.size());
    for (std::size_t i = 0; i < a.pareto_front.size(); ++i)
        expect_point_identical(a.pareto_front[i], b.pareto_front[i]);
    ASSERT_EQ(a.best.has_value(), b.best.has_value());
    if (a.best) expect_point_identical(*a.best, *b.best);
}

/// Runs one problem in both modes across thread counts and pins the
/// whole contract.
void check_prune_contract(const Problem& problem, ExploreOptions options) {
    const std::vector<std::size_t> thread_counts{1, 2, 8};

    options.dse.prune = false;
    std::vector<DseResult> exhaustive;
    for (const std::size_t threads : thread_counts) {
        options.dse.num_threads = threads;
        exhaustive.push_back(explore(problem, options));
    }
    options.dse.prune = true;
    std::vector<DseResult> pruned;
    for (const std::size_t threads : thread_counts) {
        options.dse.num_threads = threads;
        pruned.push_back(explore(problem, options));
    }

    // Each mode is bit-identical across thread counts, in full.
    for (std::size_t i = 1; i < thread_counts.size(); ++i) {
        expect_result_identical(exhaustive[0], exhaustive[i]);
        expect_result_identical(pruned[0], pruned[i]);
    }
    // Across modes, the paper's outputs are byte-identical JSON...
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
        EXPECT_EQ(best_json(pruned[i]), best_json(exhaustive[0]));
        EXPECT_EQ(front_json(pruned[i]), front_json(exhaustive[0]));
    }
    // ...while pruning only ever removes work.
    EXPECT_EQ(pruned[0].scalings_enumerated, exhaustive[0].scalings_enumerated);
    EXPECT_EQ(pruned[0].scalings_skipped_infeasible,
              exhaustive[0].scalings_skipped_infeasible);
    EXPECT_EQ(exhaustive[0].scalings_pruned, 0u);
    EXPECT_EQ(pruned[0].scalings_searched + pruned[0].scalings_pruned,
              exhaustive[0].scalings_searched);
    // Without pruning every gate passer is emitted; with it the lazy
    // queue's pop-time disposal emits only the undominated band:
    // searched <= emitted <= searched + pruned.
    EXPECT_EQ(exhaustive[0].scalings_emitted, exhaustive[0].scalings_searched);
    EXPECT_LE(pruned[0].scalings_searched, pruned[0].scalings_emitted);
    EXPECT_LE(pruned[0].scalings_emitted,
              pruned[0].scalings_searched + pruned[0].scalings_pruned);
    EXPECT_LE(pruned[0].feasible_points.size(), exhaustive[0].feasible_points.size());
}

ExploreOptions quick_options(std::uint64_t iterations, std::uint64_t seed) {
    ExploreOptions options;
    options.dse.search.max_iterations = iterations;
    options.dse.search.seed = seed;
    return options;
}

TEST(DsePrune, Fig8ContractAcrossDeadlines) {
    const TaskGraph graph = fig8_example_graph();
    for (const double deadline : {0.5, 0.2, 0.1}) {
        const Problem problem = ProblemBuilder()
                                    .graph(graph)
                                    .architecture(3, VoltageScalingTable::arm7_three_level())
                                    .deadline_seconds(deadline)
                                    .build();
        check_prune_contract(problem, quick_options(500, 7));
    }
}

TEST(DsePrune, Mpeg2Contract) {
    const Problem problem = ProblemBuilder()
                                .graph(mpeg2_decoder_graph())
                                .architecture(4, VoltageScalingTable::arm7_three_level())
                                .deadline_seconds(mpeg2_deadline_seconds())
                                .build();
    check_prune_contract(problem, quick_options(400, 3));
}

TEST(DsePrune, RandomTgffContract) {
    for (const std::uint64_t seed : {1ull, 5ull, 9ull}) {
        TgffParams params;
        params.task_count = 16;
        const TaskGraph graph = generate_tgff_graph(params, seed);
        const MpsocArchitecture probe(4, VoltageScalingTable::arm7_three_level());
        const double deadline = 1.4 * tm_lower_bound_seconds(graph, probe, {1, 1, 1, 1});
        const Problem problem = ProblemBuilder()
                                    .graph(graph)
                                    .architecture(4, VoltageScalingTable::arm7_three_level())
                                    .deadline_seconds(deadline)
                                    .build();
        check_prune_contract(problem, quick_options(400, seed));
    }
}

TEST(DsePrune, PruningFiresOnThePrunableScenario) {
    // The shared api/scenarios.h Problem bm_explore_prunable measures,
    // at a test-sized 6 cores x 6x6 tasks.
    const Problem problem = prunable_pipeline_problem(6, 6, 6);
    ExploreOptions options = quick_options(600, 1);

    options.dse.prune = true;
    options.dse.num_threads = 2;
    const DseResult pruned = explore(problem, options);
    options.dse.prune = false;
    const DseResult exhaustive = explore(problem, options);

    // The scenario exists to make the bounds bite: a healthy fraction
    // of the gate-passing combinations must be skipped outright.
    EXPECT_GT(pruned.scalings_pruned, 0u);
    EXPECT_LT(pruned.scalings_searched, exhaustive.scalings_searched);
    EXPECT_EQ(best_json(pruned), best_json(exhaustive));
    EXPECT_EQ(front_json(pruned), front_json(exhaustive));
    check_prune_contract(problem, quick_options(600, 1));
}

} // namespace
} // namespace seamap
