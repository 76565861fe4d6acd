// The lazy scaling generator (core/lazy_scaling_queue.h) must be a
// drop-in replacement for materializing the Fig. 5 sequence: every
// combination pops exactly once, gate verdicts are bit-identical to
// tm_lower_bound_seconds, each gate passer carries exactly the case
// staircase the ScalingBoundsModel computes for it, and without a
// bounds model the pops are exactly the enumeration order, so each
// pop's rank is its enumeration index. Exhaustive cross-checks run on
// small spaces where the materialized reference is cheap.
#include "core/lazy_scaling_queue.h"

#include "core/scaling_bounds.h"
#include "sched/list_scheduler.h"
#include "support/scaling_walker.h"
#include "taskgraph/fig8.h"
#include "tgff/random_graph.h"
#include "util/error.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace seamap {
namespace {

/// All combinations in Fig. 5 enumeration order, via the materialized
/// enumerator the queue replaces.
std::vector<ScalingVector> materialized(std::size_t cores, std::size_t levels) {
    ScalingEnumerator enumerator(cores, levels);
    std::vector<ScalingVector> all;
    while (auto next = enumerator.next()) all.push_back(*next);
    return all;
}

TEST(LazyScalingQueueRank, MatchesEnumerationIndexAcrossShapes) {
    // Without a bounds model pops follow the enumeration order, so the
    // i-th pop carries rank i and the i-th enumerated levels.
    const TaskGraph graph = fig8_example_graph();
    const std::vector<double> f_mhz = {200.0, 180.0, 160.0, 140.0, 120.0, 100.0};
    for (const auto& [cores, levels] : std::vector<std::pair<std::size_t, std::size_t>>{
             {1, 1}, {2, 3}, {3, 3}, {4, 2}, {5, 4}, {3, 6}}) {
        const std::string shape =
            std::to_string(cores) + " cores, " + std::to_string(levels) + " levels";
        const MpsocArchitecture arch(
            cores, VoltageScalingTable::from_frequencies(
                       std::vector<double>(f_mhz.begin(), f_mhz.begin() + levels)));
        LazyScalingQueue queue(graph, arch, 1.0, nullptr);
        const std::vector<ScalingVector> all = materialized(cores, levels);
        for (std::size_t i = 0; i < all.size(); ++i) {
            const auto slot = queue.pop();
            ASSERT_TRUE(slot.has_value()) << shape << ": queue dried up at " << i;
            EXPECT_EQ(slot->rank, i) << shape;
            EXPECT_EQ(slot->levels, all[i]) << shape << ", index " << i;
        }
        EXPECT_FALSE(queue.pop().has_value()) << shape;
    }
}

TEST(LazyScalingQueue, UnboundedPopsAreExactlyTheEnumerationOrder) {
    const TaskGraph graph = fig8_example_graph();
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
    const double deadline = 0.2;
    LazyScalingQueue queue(graph, arch, deadline, nullptr);
    const std::vector<ScalingVector> all = materialized(3, 3);
    ASSERT_EQ(queue.total(), all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        auto slot = queue.pop();
        ASSERT_TRUE(slot.has_value()) << "queue dried up at " << i;
        EXPECT_EQ(slot->rank, i);
        EXPECT_EQ(slot->levels, all[i]);
        // Gate verdict bit-identical to the materialized sweep's.
        EXPECT_EQ(slot->gate_passed,
                  tm_lower_bound_seconds(graph, arch, all[i]) <= deadline * (1.0 + 1e-9));
    }
    EXPECT_FALSE(queue.pop().has_value());
    EXPECT_EQ(queue.popped(), all.size());
}

TEST(LazyScalingQueue, BoundedPopsEmitEveryGatePasserWithItsModelCorner) {
    // With a bounds model the pop *order* is a deterministic
    // approximation, but the emitted *set* must still be every
    // combination exactly once, each gate passer carrying exactly the
    // case staircase the bounds model computes for it (its first power
    // is the corner the pops are keyed by).
    TgffParams params;
    params.task_count = 10;
    const TaskGraph graph = generate_tgff_graph(params, 3);
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const double deadline = 1.5 * tm_lower_bound_seconds(graph, arch, {1, 1, 1, 1});
    const SerModel ser;
    const ScalingBoundsModel model(graph, arch, deadline, ser,
                                   ExposurePolicy::full_duration);
    LazyScalingQueue queue(graph, arch, deadline, &model);
    const std::vector<ScalingVector> all = materialized(4, 3);
    std::map<std::uint64_t, ScalingVector> popped;
    std::size_t passers_with_cases = 0;
    while (auto slot = queue.pop()) {
        EXPECT_TRUE(popped.emplace(slot->rank, slot->levels).second)
            << "rank " << slot->rank << " popped twice";
        ASSERT_LT(slot->rank, all.size());
        EXPECT_EQ(slot->levels, all[slot->rank]);
        const bool passes =
            tm_lower_bound_seconds(graph, arch, slot->levels) <= deadline * (1.0 + 1e-9);
        EXPECT_EQ(slot->gate_passed, passes);
        if (!passes) {
            EXPECT_TRUE(slot->cases.empty());
            continue;
        }
        const std::vector<ScalingBounds> cases = model.case_bounds_for(slot->levels);
        ASSERT_EQ(slot->cases.size(), cases.size()) << "rank " << slot->rank;
        for (std::size_t i = 0; i < cases.size(); ++i) {
            EXPECT_EQ(slot->cases[i].power_mw_lb, cases[i].power_mw_lb);
            EXPECT_EQ(slot->cases[i].gamma_lb, cases[i].gamma_lb);
        }
        if (!cases.empty()) ++passers_with_cases;
    }
    EXPECT_EQ(popped.size(), all.size());
    EXPECT_EQ(queue.generated(), all.size());
    EXPECT_GT(passers_with_cases, 0u);
}

TEST(LazyScalingQueue, CountersTrackPopsAndGeneration) {
    const TaskGraph graph = fig8_example_graph();
    const MpsocArchitecture arch(2, VoltageScalingTable::arm7_three_level());
    LazyScalingQueue queue(graph, arch, 1.0, nullptr);
    EXPECT_EQ(queue.total(), 6u); // C(2+3-1, 3-1)
    EXPECT_EQ(queue.popped(), 0u);
    EXPECT_GE(queue.generated(), 1u);
    ASSERT_TRUE(queue.pop().has_value());
    EXPECT_EQ(queue.popped(), 1u);
    while (queue.pop()) {
    }
    EXPECT_EQ(queue.popped(), queue.total());
    EXPECT_EQ(queue.generated(), queue.total());
}

TEST(LazyScalingQueue, RefusesSpacesWhoseTablesPassOneGiB) {
    // The queue refuses a shape before it allocates anything, naming
    // the combination count, when its tables would pass 1 GiB:
    //  - 100000 cores x 4 levels: C(100003, 3) ~ 1.7e14 combinations,
    //    a 20 TiB visited bitmap;
    //  - 2^30 cores x 2 levels: a 128 MiB bitmap, but a 24 GiB rank
    //    table of (cores + 1) x (levels + 1) words.
    const TaskGraph graph = fig8_example_graph();
    const auto expect_refused = [&](const MpsocArchitecture& arch, const std::string& count) {
        try {
            LazyScalingQueue queue(graph, arch, 1.0, nullptr);
            ADD_FAILURE() << "expected seamap::Error";
        } catch (const Error& e) {
            EXPECT_EQ(e.category(), ErrorCategory::invalid_argument);
            EXPECT_NE(std::string(e.what()).find(count + " scaling combinations"),
                      std::string::npos)
                << e.what();
        }
    };
    expect_refused(MpsocArchitecture(100000, VoltageScalingTable::arm7_four_level()),
                   "166676666850001");
    expect_refused(
        MpsocArchitecture(std::size_t{1} << 30, VoltageScalingTable::arm7_two_level()),
        "1073741825");
}

TEST(LazyScalingQueueRank, RejectsSpacesPast64Bits) {
    // 300 cores x 12 levels: C(311, 11) ~ 5.5e19 combinations, past
    // 2^64, so not even the rank table's entries fit; the queue refuses
    // the space before it allocates anything.
    const TaskGraph graph = fig8_example_graph();
    const VoltageScalingTable twelve_levels = VoltageScalingTable::from_frequencies(
        {200.0, 190.0, 180.0, 170.0, 160.0, 150.0, 140.0, 130.0, 120.0, 110.0, 100.0, 90.0});
    try {
        LazyScalingQueue queue(graph, MpsocArchitecture(300, twelve_levels), 1.0, nullptr);
        ADD_FAILURE() << "expected seamap::Error";
    } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::invalid_argument);
        EXPECT_NE(std::string(e.what()).find("more than 2^64 scaling combinations"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace seamap
