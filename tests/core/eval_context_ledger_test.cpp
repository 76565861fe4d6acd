// The first slice of the work ledger: operation counts are deterministic,
// so they are the host-independent half of a performance claim. These
// tests pin EvalContext::Stats and the search's evaluation count after
// one acceptance slot (the bm_search_acceptance_slot setup) and one
// MPEG-2 slot (the mpeg2_campaign search budget). A refactor of the
// evaluation engine must leave every count here unchanged; a change that
// moves work on purpose (a new bound tier, a different memo size)
// updates the literals and gives the reason in CHANGES.md.
#include "seamap/seamap.h"

#include "api/scenarios.h"
#include "arch/scaling_table.h"
#include "core/eval_context.h"
#include "core/initial_mapping.h"
#include "core/search_strategy.h"
#include "taskgraph/mpeg2.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace seamap {
namespace {

struct Ledger {
    std::uint64_t evaluations;
    std::uint64_t full_evals;
    std::uint64_t incremental_evals;
    std::uint64_t bound_skips;
    std::uint64_t tm_skips;
    std::uint64_t memo_hits;
    std::uint64_t memo_entries;
};

/// Levels 1 + c % 3: the slot bm_search_acceptance_slot searches.
ScalingVector cycled_levels(const Problem& problem) {
    ScalingVector levels(problem.architecture().core_count());
    for (std::size_t c = 0; c < levels.size(); ++c)
        levels[c] = static_cast<ScalingLevel>(1 + c % 3);
    return levels;
}

/// Searches the slot `levels` from the Fig. 6 initial mapping, seed 1,
/// and checks the resulting work against `expected`.
void expect_ledger(const Problem& problem, const ScalingVector& levels,
                   std::uint64_t iterations, std::uint64_t restarts, const Ledger& expected) {
    const EvaluationContext ctx = problem.evaluation_context(levels);
    LocalSearchParams params;
    params.max_iterations = iterations;
    params.restarts = restarts;
    params.seed = 1;
    EvalContext eval(ctx);
    const LocalSearchResult result =
        OptimizedMappingStrategy(params).search(eval, initial_sea_mapping(ctx), params.seed);
    const EvalContext::Stats& stats = eval.stats();
    EXPECT_EQ(result.evaluations, expected.evaluations);
    EXPECT_EQ(stats.full_evals, expected.full_evals);
    EXPECT_EQ(stats.incremental_evals, expected.incremental_evals);
    EXPECT_EQ(stats.bound_skips, expected.bound_skips);
    EXPECT_EQ(stats.tm_skips, expected.tm_skips);
    EXPECT_EQ(stats.memo_hits, expected.memo_hits);
    EXPECT_EQ(stats.memo_entries, expected.memo_entries);
}

// The sweep's row tier decides two moves that were memo hits before
// (metrics that improved neither reference), so they count as T_M
// skips and the memo answers none.
TEST(WorkLedger, AcceptanceSlotAt60Iterations) {
    const Problem problem = scale_acceptance_problem();
    expect_ledger(problem, cycled_levels(problem), 60, 1,
                  {1139, 51, 108, 1030, 1030, 0, 99});
}

// The all-nominal slot reaches feasibility, so the sweep's Gamma tier
// decides skips too (bound_skips > tm_skips).
TEST(WorkLedger, AcceptanceNominalSlotAt60Iterations) {
    const Problem problem = scale_acceptance_problem();
    expect_ledger(problem, ScalingVector(problem.architecture().core_count(), 1), 60, 1,
                  {1139, 46, 173, 964, 21, 1, 154});
}

TEST(WorkLedger, Mpeg2SlotAt4000Iterations) {
    const Problem problem = ProblemBuilder()
                                .graph(mpeg2_decoder_graph())
                                .architecture(4, VoltageScalingTable::arm7_three_level())
                                .deadline_seconds(mpeg2_deadline_seconds())
                                .build();
    expect_ledger(problem, cycled_levels(problem), 4000, 3, {9121, 583, 1610, 1672, 1, 5836, 1110});
}

} // namespace
} // namespace seamap
