// The "zero steady-state allocation" claim as a hard test: once an
// EvalContext is warmed up, rebase() (the full pass), suffix-only
// incremental re-evaluation of a candidate, the Fig. 7 sweep's bounded
// evaluation (skipped or replayed) and row tier, accept() (promoted or
// full pass), and memo hits and inserts must perform ZERO heap
// allocations — counted by the operator-new
// replacements in tests/support/alloc_guard.cpp, not asserted by
// comment. The static side of the same contract is seamap_lint's
// hot-path-alloc rule over src/core/eval_context.cpp.
#include "seamap/seamap.h"

#include "api/scenarios.h"
#include "support/alloc_guard.h"
#include "taskgraph/fig8.h"
#include "tgff/random_graph.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace seamap {
namespace {

using seamap::testing::AllocationGuard;

// In plain builds a missing guard is a hard failure (a silent
// link-order regression would make every budget below pass vacuously);
// under sanitizers the runtime owns operator new and the budget tests
// skip instead.
#define SEAMAP_REQUIRE_ALLOC_GUARD()                                                     \
    do {                                                                                 \
        if (!seamap::testing::counting_allocator_active()) {                             \
            ASSERT_FALSE(SEAMAP_ALLOC_GUARD_EXPECTED_ACTIVE)                             \
                << "counting allocator not linked in a non-sanitized build";             \
            GTEST_SKIP() << "allocation guard inactive under sanitizers";                \
        }                                                                                \
    } while (false)

struct Workload {
    std::string label;
    TaskGraph graph;
    std::size_t cores;
    double deadline_seconds;
};

std::vector<Workload> workloads() {
    std::vector<Workload> out;
    out.push_back({"fig8", fig8_example_graph(), 3, k_fig8_deadline_seconds});
    TgffParams params;
    params.task_count = 24;
    out.push_back({"tgff24", generate_tgff_graph(params, 5), 4,
                   paper_tgff_deadline_seconds(24)});
    return out;
}

Mapping random_mapping(const TaskGraph& graph, std::size_t cores, Rng& rng) {
    Mapping mapping(graph.task_count(), cores);
    for (TaskId t = 0; t < graph.task_count(); ++t)
        mapping.assign(t, static_cast<CoreId>(rng.uniform_int(
                              0, static_cast<std::int64_t>(cores) - 1)));
    return mapping;
}

TEST(AllocGuard, CountingAllocatorIsLinkedIn) { SEAMAP_REQUIRE_ALLOC_GUARD(); }

TEST(AllocGuard, ObservesVectorGrowth) {
    SEAMAP_REQUIRE_ALLOC_GUARD();
    AllocationGuard guard;
    std::vector<int> v;
    v.reserve(64);
    EXPECT_GE(guard.allocations(), 1u);
}

// Full evaluation of fresh mappings: rebase() is the one full pass, so
// after a single warm-up call every other mapping must evaluate without
// a heap allocation (unlike the rebase replay below, no warm-up has seen
// these mappings before).
TEST(EvalContextAlloc, SteadyStateFullEvaluationIsAllocationFree) {
    SEAMAP_REQUIRE_ALLOC_GUARD();
    for (const Workload& w : workloads()) {
        const MpsocArchitecture arch(w.cores, VoltageScalingTable::arm7_three_level());
        const ScalingVector levels(w.cores, ScalingLevel{1});
        const EvaluationContext ctx{w.graph, arch, levels, SeuEstimator{SerModel{}},
                                    w.deadline_seconds};
        EvalContext eval(ctx);
        Rng rng(21);
        std::vector<Mapping> mappings;
        for (int i = 0; i < 8; ++i) mappings.push_back(random_mapping(w.graph, w.cores, rng));
        (void)eval.rebase(mappings.front()); // warm-up: first-call growth

        AllocationGuard guard;
        double sink = 0.0;
        for (const Mapping& mapping : mappings) sink += eval.rebase(mapping).gamma;
        EXPECT_EQ(guard.allocations(), 0u)
            << "steady-state full evaluation allocated on " << w.label;
        EXPECT_GT(sink, 0.0);
    }
}

TEST(EvalContextAlloc, SuffixReschedulingIsAllocationFree) {
    SEAMAP_REQUIRE_ALLOC_GUARD();
    for (const Workload& w : workloads()) {
        const MpsocArchitecture arch(w.cores, VoltageScalingTable::arm7_three_level());
        const ScalingVector levels(w.cores, ScalingLevel{1});
        const EvaluationContext ctx{w.graph, arch, levels, SeuEstimator{SerModel{}},
                                    w.deadline_seconds};
        EvalContext eval(ctx);
        Rng rng(22);
        Mapping base = random_mapping(w.graph, w.cores, rng);
        (void)eval.rebase(base);
        Mapping neighbor = base; // scratch hoisted: copy-assign below reuses capacity

        AllocationGuard guard;
        double sink = 0.0;
        for (int i = 0; i < 64; ++i) {
            neighbor = base;
            const NeighborOp op = random_neighbor_op(neighbor, rng, 0.4, false);
            sink += eval.evaluate_neighbor(op).gamma;
        }
        EXPECT_EQ(guard.allocations(), 0u)
            << "suffix rescheduling allocated on " << w.label;
        EXPECT_GT(sink, 0.0);
    }
}

TEST(EvalContextAlloc, BoundedSweepIsAllocationFree) {
    SEAMAP_REQUIRE_ALLOC_GUARD();
    for (const Workload& w : workloads()) {
        const MpsocArchitecture arch(w.cores, VoltageScalingTable::arm7_three_level());
        const ScalingVector levels(w.cores, ScalingLevel{1});
        const EvaluationContext ctx{w.graph, arch, levels, SeuEstimator{SerModel{}},
                                    w.deadline_seconds};
        EvalContext eval(ctx);
        Rng rng(25);
        const Mapping base = random_mapping(w.graph, w.cores, rng);
        const DesignMetrics base_metrics = eval.rebase(base);
        // References as a sweep sees them: the base itself (most moves
        // run the bound and replay) and one no candidate can beat (every
        // memo miss is skipped).
        DesignMetrics unbeatable;
        unbeatable.feasible = true;
        unbeatable.gamma = 0.0;
        // The same base against a deadline every design misses and an
        // infeasible reference at T_M 0: the common case of a sweep,
        // where the T_M tier skips before any register union is built.
        const EvaluationContext missed{w.graph, arch, levels, SeuEstimator{SerModel{}},
                                       w.deadline_seconds * 1e-3};
        EvalContext missed_eval(missed);
        (void)missed_eval.rebase(base);
        DesignMetrics unreachable;
        unreachable.feasible = false;
        unreachable.tm_seconds = 0.0;

        AllocationGuard guard;
        double sink = 0.0;
        for (const DesignMetrics& reference : {unbeatable, base_metrics}) {
            for (TaskId t = 0; t < w.graph.task_count(); ++t) {
                for (CoreId core = 0; core < w.cores; ++core) {
                    const std::optional<DesignMetrics> metrics =
                        eval.evaluate_bounded(NeighborOp::move(t, core), reference, reference);
                    if (metrics) sink += metrics->gamma;
                }
            }
        }
        for (TaskId t = 0; t < w.graph.task_count(); ++t) {
            for (CoreId core = 0; core < w.cores; ++core) {
                const std::optional<DesignMetrics> metrics = missed_eval.evaluate_bounded(
                    NeighborOp::move(t, core), unreachable, unreachable);
                if (metrics) sink += metrics->gamma;
            }
        }
        EXPECT_EQ(guard.allocations(), 0u) << "bounded sweep allocated on " << w.label;
        EXPECT_GT(eval.stats().bound_skips, 0u) << w.label;
        EXPECT_GT(missed_eval.stats().tm_skips, 0u) << w.label;
        EXPECT_GT(eval.stats().incremental_evals, 0u) << w.label;
        EXPECT_GT(sink, 0.0);
    }
}

// The sweep's row tier and the walk's accepted steps: rows ruled out
// against a deadline every design misses, replayed steps promoted and
// unevaluated ones accepted through the full pass, all without a heap
// allocation once the first accept has run.
TEST(EvalContextAlloc, RowTierAndAcceptAreAllocationFree) {
    SEAMAP_REQUIRE_ALLOC_GUARD();
    for (const Workload& w : workloads()) {
        const MpsocArchitecture arch(w.cores, VoltageScalingTable::arm7_three_level());
        const ScalingVector levels(w.cores, ScalingLevel{1});
        const EvaluationContext ctx{w.graph, arch, levels, SeuEstimator{SerModel{}},
                                    w.deadline_seconds * 1e-3};
        EvalContext eval(ctx);
        Rng rng(28);
        Mapping current = random_mapping(w.graph, w.cores, rng);
        (void)eval.rebase(current);
        Mapping neighbor = current;
        (void)eval.accept(random_neighbor_op(neighbor, rng, 0.4, false)); // warm-up
        current = neighbor;
        DesignMetrics unreachable; // infeasible at T_M 0: every row misses it

        AllocationGuard guard;
        double sink = 0.0;
        for (int i = 0; i < 64; ++i) {
            for (TaskId t = 0; t < w.graph.task_count(); ++t)
                sink += eval.skip_moves_of(t, unreachable, unreachable) ? 1.0 : 0.0;
            neighbor = current;
            const NeighborOp op = random_neighbor_op(neighbor, rng, 0.4, false);
            if (i % 4 != 0) sink += eval.evaluate_neighbor(op).gamma; // else the full pass
            sink += eval.accept(op).gamma;
            std::swap(current, neighbor);
        }
        EXPECT_EQ(guard.allocations(), 0u) << "row tier or accept allocated on " << w.label;
        const EvalContext::Stats& stats = eval.stats();
        EXPECT_GT(stats.row_skips, 0u) << w.label;
        EXPECT_GT(stats.promotions, 0u) << w.label;
        EXPECT_GT(stats.full_evals, stats.promotions + 1) << w.label;
        EXPECT_GT(sink, 0.0);
    }
}

TEST(EvalContextAlloc, SteadyStateRebaseIsAllocationFree) {
    SEAMAP_REQUIRE_ALLOC_GUARD();
    for (const Workload& w : workloads()) {
        const MpsocArchitecture arch(w.cores, VoltageScalingTable::arm7_three_level());
        const ScalingVector levels(w.cores, ScalingLevel{1});
        const EvaluationContext ctx{w.graph, arch, levels, SeuEstimator{SerModel{}},
                                    w.deadline_seconds};
        EvalContext eval(ctx);
        Rng rng(23);
        std::vector<Mapping> bases;
        for (int i = 0; i < 16; ++i) bases.push_back(random_mapping(w.graph, w.cores, rng));
        // Warm-up pass: the first rebase() sizes the stored base mapping
        // (the CSR partition and every other array are fixed-capacity
        // from the constructor). The guarded replay is the steady state.
        for (const Mapping& base : bases) (void)eval.rebase(base);

        AllocationGuard guard;
        double sink = 0.0;
        for (const Mapping& base : bases) sink += eval.rebase(base).gamma;
        EXPECT_EQ(guard.allocations(), 0u) << "rebase() allocated in steady state on " << w.label;
        EXPECT_GT(sink, 0.0);
    }
}

// The explorer's per-slot setup: one context per worker, rebound to
// every slot. After the first slot's warm-up (the stored base mapping's
// first copy), a rebind plus the slot's rebase and candidates allocate
// nothing.
TEST(EvalContextAlloc, RebindIsAllocationFree) {
    SEAMAP_REQUIRE_ALLOC_GUARD();
    for (const Workload& w : workloads()) {
        const MpsocArchitecture arch(w.cores, VoltageScalingTable::arm7_three_level());
        std::vector<EvaluationContext> slots;
        for (ScalingLevel level = 1; level <= 3; ++level)
            for (std::size_t c = 0; c < w.cores; ++c) {
                ScalingVector levels(w.cores, level);
                levels[c] = static_cast<ScalingLevel>(level % 3 + 1);
                slots.push_back({w.graph, arch, levels, SeuEstimator{SerModel{}},
                                 w.deadline_seconds});
            }
        EvalContext eval(std::make_shared<const EvalPlan>(w.graph, w.cores));
        Rng rng(27);
        const Mapping base = random_mapping(w.graph, w.cores, rng);
        eval.rebind(slots.front());
        (void)eval.rebase(base); // warm-up: first-call growth
        Mapping neighbor = base;
        std::vector<NeighborOp> ops;
        for (int i = 0; i < 16; ++i) {
            neighbor = base;
            ops.push_back(random_neighbor_op(neighbor, rng, 0.4, false));
        }

        AllocationGuard guard;
        double sink = 0.0;
        for (const EvaluationContext& slot : slots) {
            eval.rebind(slot);
            sink += eval.rebase(base).gamma;
            for (const NeighborOp& op : ops) sink += eval.evaluate_neighbor(op).gamma;
        }
        EXPECT_EQ(guard.allocations(), 0u) << "rebind allocated on " << w.label;
        EXPECT_GT(sink, 0.0);
    }
}

TEST(EvalContextAlloc, MemoHitsAreAllocationFree) {
    SEAMAP_REQUIRE_ALLOC_GUARD();
    const Workload w = workloads().front(); // fig8
    const MpsocArchitecture arch(w.cores, VoltageScalingTable::arm7_three_level());
    const ScalingVector levels(w.cores, ScalingLevel{1});
    const EvaluationContext ctx{w.graph, arch, levels, SeuEstimator{SerModel{}},
                                w.deadline_seconds};
    EvalContext eval(ctx);
    Rng rng(24);
    Mapping base = random_mapping(w.graph, w.cores, rng);
    (void)eval.rebase(base);
    // First pass inserts into the memo...
    std::vector<NeighborOp> ops;
    Mapping neighbor = base;
    for (int i = 0; i < 32; ++i) {
        neighbor = base;
        ops.push_back(random_neighbor_op(neighbor, rng, 0.4, false));
        (void)eval.evaluate_neighbor(ops.back());
    }
    const std::uint64_t hits_before = eval.stats().memo_hits;

    // ...the replay of the identical neighbourhood must be pure lookups.
    AllocationGuard guard;
    double sink = 0.0;
    for (const NeighborOp& op : ops) sink += eval.evaluate_neighbor(op).gamma;
    EXPECT_EQ(guard.allocations(), 0u) << "memo hit path allocated";
    EXPECT_GT(eval.stats().memo_hits, hits_before) << "replay did not hit the memo";
    EXPECT_GT(sink, 0.0);
}

TEST(EvalContextAlloc, MemoStorageIsFixedAtConstruction) {
    // At 1000 tasks a memo key is 4000 bytes, so the budget holds only
    // a few dozen slots. Drive far more distinct misses than that: every
    // insert and overwrite must reuse the storage sized at construction.
    SEAMAP_REQUIRE_ALLOC_GUARD();
    const Problem problem = scale_problem(1000, 16, 3, 1);
    const std::size_t cores = problem.architecture().core_count();
    const EvaluationContext ctx =
        problem.evaluation_context(ScalingVector(cores, ScalingLevel{1}));
    EvalContext eval(ctx);
    const std::uint64_t bytes = eval.stats().memo_bytes;
    EXPECT_GT(bytes, 0u);
    EXPECT_LE(bytes, EvalContext::k_memo_budget_bytes);
    Rng rng(26);
    const Mapping base = round_robin_mapping(problem.graph(), cores);
    (void)eval.rebase(base);
    Mapping neighbor = base;

    AllocationGuard guard;
    for (int i = 0; i < 1000; ++i) {
        neighbor = base;
        // Mostly swaps: ~500k distinct pairs, so nearly every one misses.
        (void)eval.evaluate_neighbor(random_neighbor_op(neighbor, rng, 0.9, false));
    }
    EXPECT_EQ(guard.allocations(), 0u) << "memo inserts allocated";
    const EvalContext::Stats& stats = eval.stats();
    EXPECT_GT(stats.incremental_evals, stats.memo_entries) << "no slot was overwritten";
    EXPECT_EQ(stats.memo_bytes, bytes);
}

} // namespace
} // namespace seamap
