// Giant-instance acceptance of the lazy bound-sorted enumeration
// (core/lazy_scaling_queue.h + core/dse.cpp), on the committed
// 20349-slot scenario of api/scenarios.h: with pruning on, explore()
// must EMIT (submit mapping searches for) fewer than half of the slots
// the materialized sweep would have walked, while `best` and
// `pareto_front` stay byte-identical JSON to the exhaustive no-prune
// reference at 1, 2 and 8 worker threads.
//
// These runs take minutes, not milliseconds, so the suite carries the
// `scale` ctest label instead of tier1 and every test additionally
// skips unless SEAMAP_SCALE_TESTS=1 — the nightly CI job runs
//   SEAMAP_SCALE_TESTS=1 ctest -L scale
// and a developer can do the same locally.
#include "seamap/seamap.h"

#include "api/scenarios.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace seamap {
namespace {

bool scale_tests_enabled() {
    const char* flag = std::getenv("SEAMAP_SCALE_TESTS");
    return flag != nullptr && std::string(flag) == "1";
}

#define SEAMAP_REQUIRE_SCALE()                                                    \
    do {                                                                          \
        if (!scale_tests_enabled())                                               \
            GTEST_SKIP() << "set SEAMAP_SCALE_TESTS=1 to run scale-label tests";  \
    } while (false)

std::string best_json(const DseResult& result) {
    return result.best ? to_json(*result.best).dump() : "null";
}

std::string front_json(const DseResult& result) {
    JsonValue front = JsonValue::array();
    for (const DsePoint& point : result.pareto_front) front.push_back(to_json(point));
    return front.dump();
}

ExploreOptions scale_options(bool prune, std::size_t threads) {
    ExploreOptions options;
    options.dse.prune = prune;
    options.dse.num_threads = threads;
    options.dse.search.max_iterations = 300;
    options.dse.search.restarts = 1;
    options.dse.search.seed = 1;
    return options;
}

TEST(DseScale, LazyEnumerationEmitsUnderHalfTheSlotsWithIdenticalOutputs) {
    SEAMAP_REQUIRE_SCALE();
    const Problem problem = scale_acceptance_problem();

    // Exhaustive no-prune reference: every gate passer is searched.
    const DseResult exhaustive = explore(problem, scale_options(false, 1));
    ASSERT_EQ(exhaustive.scalings_total, 20349u);
    ASSERT_EQ(exhaustive.scalings_enumerated, 20349u);
    EXPECT_EQ(exhaustive.scalings_pruned, 0u);
    EXPECT_EQ(exhaustive.scalings_emitted, exhaustive.scalings_searched);
    ASSERT_FALSE(exhaustive.pareto_front.empty());
    ASSERT_TRUE(exhaustive.best.has_value());

    const std::string reference_best = best_json(exhaustive);
    const std::string reference_front = front_json(exhaustive);

    std::vector<DseResult> pruned;
    for (const std::size_t threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        pruned.push_back(explore(problem, scale_options(true, threads)));
        const DseResult& result = pruned.back();

        // The acceptance bound: under half of the slots the
        // materialized sweep walks are ever submitted as searches.
        EXPECT_LT(result.scalings_emitted * 2, result.scalings_total);
        // The gate alone does not account for it — the bound-driven
        // disposal and prune must cut into the gate passers too.
        EXPECT_LT(result.scalings_emitted * 2,
                  exhaustive.scalings_emitted + result.scalings_pruned);
        EXPECT_GT(result.scalings_pruned, 0u);
        EXPECT_EQ(result.scalings_searched + result.scalings_pruned,
                  exhaustive.scalings_searched);
        EXPECT_EQ(result.scalings_skipped_infeasible,
                  exhaustive.scalings_skipped_infeasible);

        // The paper's outputs are byte-identical to the exhaustive
        // sweep at every thread count.
        EXPECT_EQ(best_json(result), reference_best);
        EXPECT_EQ(front_json(result), reference_front);
    }

    // The pruned run itself is deterministic across thread counts —
    // counters included.
    for (std::size_t i = 1; i < pruned.size(); ++i) {
        EXPECT_EQ(pruned[i].scalings_emitted, pruned[0].scalings_emitted);
        EXPECT_EQ(pruned[i].scalings_pruned, pruned[0].scalings_pruned);
        EXPECT_EQ(pruned[i].scalings_searched, pruned[0].scalings_searched);
        EXPECT_EQ(pruned[i].feasible_points.size(), pruned[0].feasible_points.size());
    }
}

TEST(DseScale, GiantTgffInstancesEvaluateUnderTheScaleFamily) {
    SEAMAP_REQUIRE_SCALE();
    // The ROADMAP --scale family at its smallest committed size: a
    // 1k-task TGFF graph on 16 cores. One pruned exploration with a
    // tiny per-slot budget — this pins that giant graphs go through
    // the whole lazy pipeline (gate, bounds, SoA eval, rank-heap
    // scheduling order) without blowing memory or determinism, not that the
    // search finds good designs.
    const Problem problem = scale_problem(1000, 16, 3, 1);
    ExploreOptions options;
    options.dse.search.max_iterations = 5;
    options.dse.search.restarts = 1;
    options.dse.num_threads = 2;
    const DseResult first = explore(problem, options);
    const DseResult second = explore(problem, options);
    EXPECT_EQ(first.scalings_total, second.scalings_total);
    EXPECT_EQ(first.scalings_emitted, second.scalings_emitted);
    EXPECT_EQ(first.scalings_searched, second.scalings_searched);
    EXPECT_EQ(best_json(first), best_json(second));
    EXPECT_EQ(front_json(first), front_json(second));
}

} // namespace
} // namespace seamap
