// Pinned explorer output: every scalings_* counter and the best/front
// JSON of one pruned exploration per built-in strategy, against
// constants recorded from an earlier build. The prune contract (dse_prune_test) compares modes and
// thread counts with each other; this suite catches a change that moves
// all of them together — a reordered pop, a different disposal or
// replay decision, a bound that prunes more or less. The problem is
// chosen so that both pruning paths fire: the producer disposes of
// slots at pop time (emitted < searched + pruned) and the replay prunes
// slots that were already emitted (searched < emitted).
#include "seamap/seamap.h"

#include "api/scenarios.h"
#include "util/checkpoint.h"

#include <gtest/gtest.h>

#include <string>

namespace seamap {
namespace {

TEST(DsePinnedResult, PrunablePipelineCountersAndOutputs) {
    const Problem problem = prunable_pipeline_problem(8);
    ExploreOptions options;
    options.dse.search.max_iterations = 600;
    options.dse.search.seed = 1;
    options.dse.prune = true;
    for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        options.dse.num_threads = threads;
        const DseResult result = explore(problem, options);

        EXPECT_EQ(result.scalings_total, 165u);
        EXPECT_EQ(result.scalings_enumerated, 165u);
        EXPECT_EQ(result.scalings_skipped_infeasible, 65u);
        EXPECT_EQ(result.scalings_emitted, 97u);
        EXPECT_EQ(result.scalings_pruned, 47u);
        EXPECT_EQ(result.scalings_searched, 53u);
        EXPECT_EQ(result.feasible_points.size(), 51u);
        // Both pruning paths fire: 3 slots disposed at pop time, 44
        // emitted slots pruned by the replay.
        EXPECT_LT(result.scalings_emitted,
                  result.scalings_searched + result.scalings_pruned);
        EXPECT_LT(result.scalings_searched, result.scalings_emitted);

        ASSERT_TRUE(result.best.has_value());
        EXPECT_EQ(to_json(*result.best).dump(),
                  R"({"levels":[4,3,2,2,2,2,2,2],"core_of":[2,0,4,5,5,6,4,7,4,1,1,6,)"
                  R"(5,5,2,6,7,3,4,1,4,6,5,5,3,0,4,3,7,5,0,3,2,2,4,2,7,7,5,2,6,7,7,3,1,)"
                  R"(4,4,3,6,6,2,6,6,4,2,3,2,5,7,3,3,5,1,7],"metrics":{)"
                  R"("tm_seconds":0.1470127278125,"latency_seconds":0.0009306088671874998,)"
                  R"("register_bits":74825,"gamma":2300.7344984232755,)"
                  R"("power_mw":12.742749362871084,"feasible":true}})");
        JsonValue front = JsonValue::array();
        for (const DsePoint& point : result.pareto_front) front.push_back(to_json(point));
        EXPECT_EQ(result.pareto_front.size(), 31u);
        EXPECT_EQ(fnv1a64(front.dump()), 0xe8a2a20f156a8820ULL);
    }
}

TEST(DsePinnedResult, PrunablePipelineAnnealingCountersAndOutputs) {
    const Problem problem = prunable_pipeline_problem(8);
    ExploreOptions options;
    options.strategy = "annealing";
    options.dse.search.max_iterations = 600;
    options.dse.search.seed = 1;
    options.dse.prune = true;
    for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        options.dse.num_threads = threads;
        const DseResult result = explore(problem, options);

        EXPECT_EQ(result.scalings_total, 165u);
        EXPECT_EQ(result.scalings_enumerated, 165u);
        EXPECT_EQ(result.scalings_skipped_infeasible, 65u);
        EXPECT_EQ(result.scalings_emitted, 98u);
        EXPECT_EQ(result.scalings_pruned, 50u);
        EXPECT_EQ(result.scalings_searched, 50u);
        EXPECT_EQ(result.feasible_points.size(), 48u);
        // Both pruning paths fire: 2 slots disposed at pop time, 48
        // emitted slots pruned by the replay.
        EXPECT_LT(result.scalings_emitted,
                  result.scalings_searched + result.scalings_pruned);
        EXPECT_LT(result.scalings_searched, result.scalings_emitted);

        ASSERT_TRUE(result.best.has_value());
        EXPECT_EQ(to_json(*result.best).dump(),
                  R"({"levels":[4,3,2,2,2,2,2,2],"core_of":[7,1,3,6,6,5,2,5,3,2,6,2,)"
                  R"(0,3,2,6,4,6,2,2,3,3,4,0,6,4,7,6,2,5,7,1,3,7,6,1,2,3,7,4,7,4,7,5,6,)"
                  R"(2,4,5,3,5,7,4,4,5,3,4,7,0,7,5,2,1,7,5],"metrics":{)"
                  R"("tm_seconds":0.145771489375,"latency_seconds":0.0010740801953125004,)"
                  R"("register_bits":74825,"gamma":2278.4942229863855,)"
                  R"("power_mw":12.761077325419814,"feasible":true}})");
        JsonValue front = JsonValue::array();
        for (const DsePoint& point : result.pareto_front) front.push_back(to_json(point));
        EXPECT_EQ(result.pareto_front.size(), 30u);
        EXPECT_EQ(fnv1a64(front.dump()), 0x6a3fc46baa68c22cULL);
    }
}

} // namespace
} // namespace seamap
