// The lazy scaling generator (core/lazy_scaling_queue.h) must be a
// drop-in replacement for materializing the Fig. 5 sequence: every
// combination pops exactly once, gate verdicts are bit-identical to
// tm_lower_bound_seconds, each gate passer carries exactly the case
// staircase the ScalingBoundsModel computes for it, and the pop order
// is invariant to the order successors are pushed (the visited-set
// dedup + strict (key, rank) total order make it a pure function of
// the problem). Exhaustive cross-checks run on small spaces where the
// materialized reference is cheap.
#include "core/lazy_scaling_queue.h"

#include "core/scaling_bounds.h"
#include "sched/list_scheduler.h"
#include "support/scaling_walker.h"
#include "taskgraph/fig8.h"
#include "tgff/random_graph.h"
#include "util/error.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
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
    for (const auto& [cores, levels] : std::vector<std::pair<std::size_t, std::size_t>>{
             {1, 1}, {2, 3}, {3, 3}, {4, 2}, {5, 4}, {3, 6}}) {
        const std::vector<ScalingVector> all = materialized(cores, levels);
        for (std::size_t i = 0; i < all.size(); ++i)
            EXPECT_EQ(LazyScalingQueue::rank_of(all[i], levels), i)
                << cores << " cores, " << levels << " levels, index " << i;
    }
}

TEST(LazyScalingQueueRank, RejectsIncreasingTuples) {
    EXPECT_THROW(LazyScalingQueue::rank_of({1, 2}, 3), std::invalid_argument);
    EXPECT_THROW(LazyScalingQueue::rank_of({2, 1, 3}, 3), std::invalid_argument);
}

TEST(LazyScalingQueueRank, RejectsSpacesPast64Bits) {
    // C(311, 11) ~ 5.5e19 combinations: the rank table would overflow,
    // so the space is refused up front, as the queue refuses it.
    EXPECT_THROW((void)LazyScalingQueue::rank_of(ScalingVector(300, 12), 12), Error);
}

TEST(LazyScalingQueueSuccessors, CoverTheWholeSpaceFromTheRoot) {
    // BFS over the successor structure from the all-slowest root must
    // reach every combination: that is what makes the lazy frontier
    // complete.
    const std::size_t cores = 4, levels = 3;
    const std::vector<ScalingVector> all = materialized(cores, levels);
    std::set<std::uint64_t> seen;
    std::vector<ScalingVector> frontier{ScalingVector(cores, static_cast<ScalingLevel>(levels))};
    seen.insert(LazyScalingQueue::rank_of(frontier.front(), levels));
    std::vector<ScalingVector> next;
    while (!frontier.empty()) {
        next.clear();
        for (const ScalingVector& combo : frontier) {
            std::vector<ScalingVector> out;
            LazyScalingQueue::successors(combo, out);
            for (ScalingVector& successor : out) {
                // Each successor decrements exactly one position and
                // stays non-increasing.
                std::uint64_t diff = 0;
                for (std::size_t i = 0; i < cores; ++i) {
                    EXPECT_TRUE(i == 0 || successor[i] <= successor[i - 1]);
                    if (successor[i] != combo[i]) {
                        ++diff;
                        EXPECT_EQ(successor[i] + 1, combo[i]);
                    }
                }
                EXPECT_EQ(diff, 1u);
                if (seen.insert(LazyScalingQueue::rank_of(successor, levels)).second)
                    next.push_back(successor);
            }
        }
        frontier.swap(next);
    }
    // Every rank in [0, C(C+L-1, L-1)) reached exactly once.
    EXPECT_EQ(seen.size(), all.size());
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), all.size() - 1);
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

TEST(LazyScalingQueue, PopSequenceInvariantUnderSuccessorShuffles) {
    // The successor push order is an implementation detail; the dedup
    // bitmap and the strict (key, rank) heap order must make the pop
    // sequence identical for any shuffle of it.
    TgffParams params;
    params.task_count = 8;
    const TaskGraph graph = generate_tgff_graph(params, 11);
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_four_level());
    const double deadline = 1.6 * tm_lower_bound_seconds(graph, arch, {1, 1, 1});
    const SerModel ser;
    const ScalingBoundsModel model(graph, arch, deadline, ser,
                                   ExposurePolicy::full_duration);
    std::vector<std::vector<std::uint64_t>> sequences;
    for (const std::uint64_t shuffle : {0ull, 1ull, 0xdecafbadULL}) {
        LazyScalingQueue queue(graph, arch, deadline, &model, shuffle);
        std::vector<std::uint64_t> ranks;
        while (auto slot = queue.pop()) ranks.push_back(slot->rank);
        sequences.push_back(std::move(ranks));
    }
    EXPECT_EQ(sequences[0], sequences[1]);
    EXPECT_EQ(sequences[0], sequences[2]);
    EXPECT_EQ(sequences[0].size(), materialized(3, 4).size());
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

} // namespace
} // namespace seamap
