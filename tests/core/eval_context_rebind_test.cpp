// A rebound EvalContext must be indistinguishable from a fresh one. The
// explorer keeps one context per worker and rebinds it to every slot it
// searches, so each slot's metrics, search result and stats() must be
// bit-identical to a context constructed for that slot alone, whatever
// slots the context served before (rank order or shuffled). The second
// half pins the T_M tier's busiest-core list: when every listed core is
// touched, the II must come from a scan of the untouched cores.
#include "seamap/seamap.h"

#include "api/scenarios.h"
#include "baseline/simulated_annealing.h"
#include "core/eval_context.h"
#include "core/initial_mapping.h"
#include "core/search_strategy.h"
#include "support/scaling_walker.h"
#include "taskgraph/fig8.h"
#include "tgff/random_graph.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace seamap {
namespace {

void expect_same(const DesignMetrics& got, const DesignMetrics& want, const std::string& where) {
    // EXPECT_EQ on doubles is exact comparison: that is the contract.
    EXPECT_EQ(got.tm_seconds, want.tm_seconds) << where;
    EXPECT_EQ(got.latency_seconds, want.latency_seconds) << where;
    EXPECT_EQ(got.register_bits, want.register_bits) << where;
    EXPECT_EQ(got.gamma, want.gamma) << where;
    EXPECT_EQ(got.power_mw, want.power_mw) << where;
    EXPECT_EQ(got.feasible, want.feasible) << where;
}

void expect_same(const EvalContext::Stats& got, const EvalContext::Stats& want,
                 const std::string& where) {
    EXPECT_EQ(got.full_evals, want.full_evals) << where;
    EXPECT_EQ(got.incremental_evals, want.incremental_evals) << where;
    EXPECT_EQ(got.bound_skips, want.bound_skips) << where;
    EXPECT_EQ(got.tm_skips, want.tm_skips) << where;
    EXPECT_EQ(got.memo_hits, want.memo_hits) << where;
    EXPECT_EQ(got.memo_entries, want.memo_entries) << where;
    EXPECT_EQ(got.memo_bytes, want.memo_bytes) << where;
}

void expect_same(const LocalSearchResult& got, const LocalSearchResult& want,
                 const std::string& where) {
    EXPECT_EQ(got.best_mapping, want.best_mapping) << where;
    expect_same(got.best_metrics, want.best_metrics, where);
    EXPECT_EQ(got.found_feasible, want.found_feasible) << where;
    EXPECT_EQ(got.iterations_run, want.iterations_run) << where;
    EXPECT_EQ(got.improvements, want.improvements) << where;
    EXPECT_EQ(got.evaluations, want.evaluations) << where;
}

/// Every `stride`-th scaling of `problem` in enumeration (rank) order.
std::vector<ScalingVector> scalings(const Problem& problem, std::size_t stride) {
    const MpsocArchitecture& arch = problem.architecture();
    ScalingEnumerator enumerator(arch.core_count(), arch.scaling_table().level_count());
    std::vector<ScalingVector> out;
    for (std::size_t rank = 0; auto levels = enumerator.next(); ++rank)
        if (rank % stride == 0) out.push_back(std::move(*levels));
    return out;
}

Problem small_problem(TaskGraph graph, std::size_t cores, double deadline_seconds) {
    return ProblemBuilder()
        .graph(std::move(graph))
        .architecture(cores, VoltageScalingTable::arm7_four_level())
        .deadline_seconds(deadline_seconds)
        .build();
}

/// One context rebound across `slots`, against a fresh context per slot:
/// the Fig. 7 search (bounded sweeps, walks, memo) and the annealer
/// (random walk) from the Fig. 6 initial mapping, plus a few neighbours
/// of the final base.
void expect_rebind_matches_fresh(const Problem& problem, const std::vector<ScalingVector>& slots,
                                 const std::string& label) {
    LocalSearchParams params;
    params.max_iterations = 60;
    params.restarts = 2;
    const OptimizedMappingStrategy fig7(params);
    const AnnealingStrategy annealing(params);
    const std::size_t cores = problem.architecture().core_count();
    auto plan = std::make_shared<const EvalPlan>(problem.graph(), cores);
    EvalContext rebound(plan);
    Rng rng(3);
    for (std::size_t i = 0; i < slots.size(); ++i) {
        const std::string where = label + " slot " + std::to_string(i);
        const EvaluationContext ctx = problem.evaluation_context(slots[i]);
        const Mapping initial = initial_sea_mapping(ctx);
        for (const SearchStrategy* strategy :
             {static_cast<const SearchStrategy*>(&fig7),
              static_cast<const SearchStrategy*>(&annealing)}) {
            const std::uint64_t seed = 17 + i;
            EvalContext fresh(ctx);
            const LocalSearchResult want = strategy->search(fresh, initial, seed);
            rebound.rebind(ctx);
            const LocalSearchResult got = strategy->search(rebound, initial, seed);
            expect_same(got, want, where + " " + strategy->name());
            expect_same(rebound.stats(), fresh.stats(), where + " " + strategy->name());
            EXPECT_EQ(&rebound.problem(), &ctx) << where;
        }
        Mapping neighbor = initial;
        for (int k = 0; k < 8; ++k) {
            neighbor = initial;
            const NeighborOp op = random_neighbor_op(neighbor, rng, 0.4, false);
            rebound.rebind(ctx);
            (void)rebound.rebase(initial);
            expect_same(rebound.evaluate_neighbor(op), evaluate_design(ctx, neighbor), where);
        }
    }
}

struct Case {
    std::string label;
    Problem problem;
    std::size_t stride;
};

std::vector<Case> cases() {
    TgffParams tgff;
    tgff.task_count = 40;
    std::vector<Case> out;
    // 20349 scalings: every 850th gives 24.
    out.push_back({"acceptance", scale_acceptance_problem(), 850});
    // 4 cores x 4 levels: all 35 scalings.
    out.push_back({"fig8", small_problem(fig8_example_graph(), 4, k_fig8_deadline_seconds), 1});
    out.push_back({"tgff40",
                   small_problem(generate_tgff_graph(tgff, 9), 4, paper_tgff_deadline_seconds(40)),
                   1});
    return out;
}

TEST(EvalContextRebind, RankOrderMatchesFreshContexts) {
    for (const Case& c : cases()) {
        const std::vector<ScalingVector> slots = scalings(c.problem, c.stride);
        ASSERT_GE(slots.size(), 20u) << c.label;
        expect_rebind_matches_fresh(c.problem, slots, c.label);
    }
}

TEST(EvalContextRebind, ShuffledOrderMatchesFreshContexts) {
    for (const Case& c : cases()) {
        std::vector<ScalingVector> slots = scalings(c.problem, c.stride);
        Rng rng(5);
        for (std::size_t i = slots.size(); i > 1; --i)
            std::swap(slots[i - 1], slots[static_cast<std::size_t>(rng.uniform_int(
                                        0, static_cast<std::int64_t>(i) - 1))]);
        expect_rebind_matches_fresh(c.problem, slots, c.label + " shuffled");
    }
}

TEST(EvalContextRebind, RejectsAProblemOverAnotherGraph) {
    const Problem a = small_problem(fig8_example_graph(), 4, k_fig8_deadline_seconds);
    const Problem b = small_problem(fig8_example_graph(), 4, k_fig8_deadline_seconds);
    const ScalingVector levels(4, ScalingLevel{1});
    const EvaluationContext ctx_a = a.evaluation_context(levels);
    const EvaluationContext ctx_b = b.evaluation_context(levels);
    EvalContext eval(ctx_a);
    EXPECT_THROW(eval.rebind(ctx_b), std::invalid_argument);
    EvalContext unbound(std::make_shared<const EvalPlan>(a.graph(), 4));
    EXPECT_THROW((void)unbound.rebase(round_robin_mapping(a.graph(), 4)), std::logic_error);
}

/// Every move and swap of `graph` from random bases, evaluated plain and
/// bounded, against evaluate_design().
void expect_all_neighbors_exact(const TaskGraph& graph, std::size_t cores,
                                const ScalingVector& levels, double deadline_seconds) {
    const MpsocArchitecture arch(cores, VoltageScalingTable::arm7_three_level());
    const EvaluationContext ctx{graph, arch, levels, SeuEstimator{SerModel{}}, deadline_seconds};
    EvalContext eval(ctx);
    DesignMetrics never_skip; // an infeasible reference at T_M +inf
    never_skip.tm_seconds = std::numeric_limits<double>::infinity();
    Rng rng(41);
    for (int trial = 0; trial < 6; ++trial) {
        Mapping base(graph.task_count(), cores);
        for (TaskId t = 0; t < graph.task_count(); ++t)
            base.assign(t, static_cast<CoreId>(
                               rng.uniform_int(0, static_cast<std::int64_t>(cores) - 1)));
        (void)eval.rebase(base);
        for (TaskId a = 0; a < graph.task_count(); ++a) {
            for (CoreId core = 0; core < cores; ++core) {
                Mapping moved = base;
                moved.assign(a, core);
                const DesignMetrics want = evaluate_design(ctx, moved);
                expect_same(eval.evaluate_neighbor(NeighborOp::move(a, core)), want, "move");
            }
            for (TaskId b = a + 1; b < graph.task_count(); ++b) {
                if (base.core_of(a) == base.core_of(b)) continue;
                Mapping swapped = base;
                swapped.assign(a, base.core_of(b));
                swapped.assign(b, base.core_of(a));
                const NeighborOp op{a, base.core_of(b), b, base.core_of(a)};
                const std::optional<DesignMetrics> got =
                    eval.evaluate_bounded(op, never_skip, never_skip);
                ASSERT_TRUE(got.has_value());
                expect_same(*got, evaluate_design(ctx, swapped), "swap");
            }
        }
    }
}

TEST(EvalContextBusiestCores, HighDegreeTaskOnFewCoresIsExact) {
    // A hub with an edge to and from every other task: moving it touches
    // every core, so on a <= k_ii_top-core architecture every listed
    // core is touched.
    static_assert(EvalContext::k_ii_top >= 3);
    RegisterFile registers;
    const RegisterId r = registers.add_register("r", 32);
    TaskGraph graph("hub", registers);
    graph.set_batch_count(50);
    const TaskId hub = graph.add_task("hub", 5'000, std::vector<RegisterId>{r});
    for (int i = 0; i < 9; ++i) {
        const TaskId leaf = graph.add_task("leaf" + std::to_string(i),
                                           1'000 + 700 * static_cast<std::uint64_t>(i));
        if (i % 2 == 0)
            graph.add_edge(leaf, hub, 400 + 50 * static_cast<std::uint64_t>(i));
        else
            graph.add_edge(hub, leaf, 300 + 90 * static_cast<std::uint64_t>(i));
    }
    expect_all_neighbors_exact(graph, 3, {1, 2, 3}, 1e-3);
    expect_all_neighbors_exact(graph, 6, {3, 1, 2, 3, 1, 2}, 1e-3);
}

TEST(EvalContextBusiestCores, UntouchedCoreOutsideTheListSetsTheII) {
    // Cores 0 and 1 run slow (level 3) tasks a and b; cores 2 and 3 run
    // fast (level 1) tasks c and d, which send a and b heavy transfers;
    // core 4 runs x slowly. Base busiest cores: 2, 3, 0, 1, so x's core
    // is off a four-entry list. Moving a to core 2 and b to core 3 makes
    // both transfers local and empties cores 0 and 1: every listed core
    // is touched, and the untouched core 4 now has the largest II term.
    static_assert(EvalContext::k_ii_top == 4);
    TaskGraph graph("fallback", RegisterFile{});
    graph.set_batch_count(50);
    const TaskId a = graph.add_task("a", 3'000);
    const TaskId b = graph.add_task("b", 3'000);
    const TaskId c = graph.add_task("c", 30);
    const TaskId d = graph.add_task("d", 30);
    const TaskId x = graph.add_task("x", 1'500);
    graph.add_edge(c, a, 9'000);
    graph.add_edge(d, b, 9'000);
    const MpsocArchitecture arch(5, VoltageScalingTable::arm7_three_level());
    const ScalingVector levels{3, 3, 1, 1, 3};
    const EvaluationContext ctx{graph, arch, levels, SeuEstimator{SerModel{}}, 1.0};
    Mapping base(graph.task_count(), 5);
    for (const auto& [task, core] :
         {std::pair{a, 0u}, std::pair{b, 1u}, std::pair{c, 2u}, std::pair{d, 3u},
          std::pair{x, 4u}})
        base.assign(task, static_cast<CoreId>(core));
    Mapping moved = base;
    moved.assign(a, 2);
    moved.assign(b, 3);
    const DesignMetrics want = evaluate_design(ctx, moved);
    EvalContext eval(ctx);
    (void)eval.rebase(base);
    expect_same(eval.evaluate_neighbor(NeighborOp{a, 2, b, 3}), want, "fallback");
    // The scenario does what it says: the II is x's core's.
    const double batches = static_cast<double>(graph.batch_count());
    const double x_ii = 1'500.0 / arch.frequency_hz(3) / batches;
    EXPECT_NEAR(want.tm_seconds - want.latency_seconds, (batches - 1.0) * x_ii, 1e-9 * x_ii);
}

} // namespace
} // namespace seamap
