// The equivalence harness pinning the EvalContext fast path to the
// naive evaluate_design() path BIT-IDENTICALLY: full evaluation,
// incremental candidate re-evaluation and memoized lookups must all
// produce exactly the doubles the naive path produces, across Fig. 8,
// MPEG-2 and seeded random TGFF graphs x every scaling combination —
// and whole searches / explorations driven through either path must
// produce byte-identical results for all strategies and thread counts.
#include "seamap/seamap.h"

#include "api/scenarios.h"
#include "support/naive_eval_strategy.h"
#include "support/scaling_walker.h"
#include "taskgraph/fig8.h"
#include "taskgraph/mpeg2.h"
#include "tgff/random_graph.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace seamap {
namespace {

struct Workload {
    std::string label;
    TaskGraph graph;
    std::size_t cores;
    double deadline_seconds;
};

std::vector<Workload> workloads() {
    std::vector<Workload> out;
    out.push_back({"fig8", fig8_example_graph(), 3, k_fig8_deadline_seconds});
    out.push_back({"mpeg2", mpeg2_decoder_graph(), 4, mpeg2_deadline_seconds()});
    TgffParams params;
    params.task_count = 16;
    out.push_back({"tgff16", generate_tgff_graph(params, 7), 3,
                   paper_tgff_deadline_seconds(16)});
    return out;
}

Mapping random_mapping(const TaskGraph& graph, std::size_t cores, Rng& rng) {
    Mapping mapping(graph.task_count(), cores);
    for (TaskId t = 0; t < graph.task_count(); ++t)
        mapping.assign(t, static_cast<CoreId>(rng.uniform_int(
                              0, static_cast<std::int64_t>(cores) - 1)));
    return mapping;
}

void expect_bit_identical(const DesignMetrics& fast, const DesignMetrics& naive,
                          const std::string& where) {
    // EXPECT_EQ on doubles is exact comparison — that is the contract.
    EXPECT_EQ(fast.tm_seconds, naive.tm_seconds) << where;
    EXPECT_EQ(fast.latency_seconds, naive.latency_seconds) << where;
    EXPECT_EQ(fast.register_bits, naive.register_bits) << where;
    EXPECT_EQ(fast.gamma, naive.gamma) << where;
    EXPECT_EQ(fast.power_mw, naive.power_mw) << where;
    EXPECT_EQ(fast.feasible, naive.feasible) << where;
}

std::vector<ScalingVector> all_scalings(const MpsocArchitecture& arch) {
    std::vector<ScalingVector> out;
    ScalingEnumerator enumerator(arch.core_count(), arch.scaling_table().level_count());
    while (auto levels = enumerator.next()) out.push_back(std::move(*levels));
    return out;
}

TEST(EvalContextEquivalence, FullEvaluationMatchesNaiveAcrossAllScalings) {
    for (const Workload& w : workloads()) {
        const MpsocArchitecture arch(w.cores, VoltageScalingTable::arm7_three_level());
        Rng rng(11);
        for (const ScalingVector& levels : all_scalings(arch)) {
            const EvaluationContext ctx{w.graph, arch, levels, SeuEstimator{SerModel{}},
                                        w.deadline_seconds};
            EvalContext eval(ctx);
            std::vector<Mapping> mappings;
            mappings.push_back(round_robin_mapping(w.graph, w.cores));
            mappings.push_back(single_core_mapping(w.graph, w.cores));
            for (int i = 0; i < 4; ++i) mappings.push_back(random_mapping(w.graph, w.cores, rng));
            for (const Mapping& mapping : mappings) {
                const DesignMetrics naive = evaluate_design(ctx, mapping);
                // rebase() files `mapping` under its full-mapping key; a
                // neighbour moving task 0 back is served from that entry.
                expect_bit_identical(eval.rebase(mapping), naive, w.label + " rebase");
                Mapping moved = mapping;
                moved.assign(0, static_cast<CoreId>((mapping.core_of(0) + 1) % w.cores));
                (void)eval.rebase(moved);
                expect_bit_identical(
                    eval.evaluate_neighbor(NeighborOp::move(0, mapping.core_of(0))), naive,
                    w.label + " memo hit");
            }
        }
    }
}

TEST(EvalContextEquivalence, IncrementalMoveAndSwapMatchNaive) {
    for (const Workload& w : workloads()) {
        const MpsocArchitecture arch(w.cores, VoltageScalingTable::arm7_three_level());
        Rng rng(23);
        // All scalings for the small Fig. 8 graph; a deterministic
        // sample for the larger ones keeps the test fast.
        const auto scalings = all_scalings(arch);
        std::size_t stride = w.label == "fig8" ? 1 : 5;
        for (std::size_t s = 0; s < scalings.size(); s += stride) {
            const EvaluationContext ctx{w.graph, arch, scalings[s], SeuEstimator{SerModel{}},
                                        w.deadline_seconds};
            EvalContext eval(ctx);
            Mapping base = random_mapping(w.graph, w.cores, rng);
            eval.rebase(base);
            // Exhaustive single-task moves off the base.
            for (TaskId t = 0; t < w.graph.task_count(); ++t) {
                for (CoreId core = 0; core < w.cores; ++core) {
                    if (core == base.core_of(t)) continue;
                    Mapping moved = base;
                    moved.assign(t, core);
                    expect_bit_identical(eval.evaluate_neighbor(NeighborOp::move(t, core)),
                                         evaluate_design(ctx, moved),
                                         w.label + " move");
                }
            }
            // Random swaps, re-anchoring the base every few steps so
            // rebase-after-acceptance is exercised too.
            for (int i = 0; i < 24; ++i) {
                const auto a = static_cast<TaskId>(rng.uniform_int(
                    0, static_cast<std::int64_t>(w.graph.task_count()) - 1));
                const auto b = static_cast<TaskId>(rng.uniform_int(
                    0, static_cast<std::int64_t>(w.graph.task_count()) - 1));
                if (a == b || base.core_of(a) == base.core_of(b)) continue;
                Mapping swapped = base;
                const CoreId core_a = base.core_of(a);
                swapped.assign(a, base.core_of(b));
                swapped.assign(b, core_a);
                expect_bit_identical(
                    eval.evaluate_neighbor({a, base.core_of(b), b, base.core_of(a)}),
                    evaluate_design(ctx, swapped), w.label + " swap");
                if (i % 5 == 4) {
                    base = swapped;
                    expect_bit_identical(eval.rebase(base), evaluate_design(ctx, base),
                                         w.label + " rebase");
                }
            }
        }
    }
}

TEST(EvalContextEquivalence, WideArchitectureMoveAndSwapMatchNaive) {
    // The benchmark's shape: scale_acceptance_problem()'s 36-task
    // pipeline on 16 cores x 6 levels, where the per-(task, core) time
    // tables and the prefix latency span many distinct frequencies.
    const Problem problem = scale_acceptance_problem();
    const TaskGraph& graph = problem.graph();
    const std::size_t cores = problem.architecture().core_count();
    const std::size_t levels = problem.architecture().scaling_table().level_count();
    ASSERT_EQ(cores, 16u);
    ASSERT_EQ(levels, 6u);
    std::vector<ScalingVector> slots = {ScalingVector(cores, 1),
                                        ScalingVector(cores, static_cast<ScalingLevel>(levels))};
    ScalingVector ladder(cores);
    for (std::size_t c = 0; c < cores; ++c)
        ladder[c] = static_cast<ScalingLevel>(levels - c * levels / cores); // 6,6,6,5,...,1
    slots.push_back(ladder);
    Rng rng(31);
    for (const ScalingVector& slot : slots) {
        const EvaluationContext ctx = problem.evaluation_context(slot);
        EvalContext eval(ctx);
        Mapping base = random_mapping(graph, cores, rng);
        expect_bit_identical(eval.rebase(base), evaluate_design(ctx, base), "wide rebase");
        for (TaskId t = 0; t < graph.task_count(); ++t) {
            for (CoreId core = 0; core < cores; ++core) {
                if (core == base.core_of(t)) continue;
                Mapping moved = base;
                moved.assign(t, core);
                expect_bit_identical(eval.evaluate_neighbor(NeighborOp::move(t, core)),
                                     evaluate_design(ctx, moved), "wide move");
            }
        }
        for (int i = 0; i < 80; ++i) {
            const auto a = static_cast<TaskId>(
                rng.uniform_int(0, static_cast<std::int64_t>(graph.task_count()) - 1));
            const auto b = static_cast<TaskId>(
                rng.uniform_int(0, static_cast<std::int64_t>(graph.task_count()) - 1));
            if (a == b || base.core_of(a) == base.core_of(b)) continue;
            Mapping swapped = base;
            swapped.assign(a, base.core_of(b));
            swapped.assign(b, base.core_of(a));
            expect_bit_identical(
                eval.evaluate_neighbor({a, base.core_of(b), b, base.core_of(a)}),
                evaluate_design(ctx, swapped), "wide swap");
            if (i % 6 == 5) {
                base = swapped;
                expect_bit_identical(eval.rebase(base), evaluate_design(ctx, base),
                                     "wide rebase");
            }
        }
    }
}

TEST(EvalContextEquivalence, MemoHitsAreServedWithoutReevaluation) {
    const TaskGraph graph = mpeg2_decoder_graph();
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const EvaluationContext ctx{graph, arch, {1, 2, 2, 3}, SeuEstimator{SerModel{}},
                                mpeg2_deadline_seconds()};
    EvalContext eval(ctx);
    const Mapping base = round_robin_mapping(graph, 4);
    eval.rebase(base);
    const DesignMetrics first = eval.evaluate_neighbor(NeighborOp::move(0, 1));
    const auto incremental_before = eval.stats().incremental_evals;
    const DesignMetrics again = eval.evaluate_neighbor(NeighborOp::move(0, 1));
    EXPECT_EQ(eval.stats().incremental_evals, incremental_before)
        << "revisited candidate must be a memo hit, not a re-evaluation";
    EXPECT_GT(eval.stats().memo_hits, 0u);
    expect_bit_identical(again, first, "memo hit");
}

TEST(EvalContextEquivalence, NeighbourMemoKeysEqualFullMappingKeys) {
    // A neighbour's memo key is the base key updated in O(1); it must
    // equal the key of the materialized mapping, or rebase() and the
    // neighbour paths would cache the same design twice.
    TgffParams params;
    params.task_count = 16;
    const TaskGraph graph = generate_tgff_graph(params, 7);
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const EvaluationContext ctx{graph, arch, {1, 2, 2, 3}, SeuEstimator{SerModel{}},
                                paper_tgff_deadline_seconds(16)};
    EvalContext eval(ctx);
    Rng rng(41);
    const Mapping base = random_mapping(graph, 4, rng);
    eval.rebase(base);

    // rebase() files each neighbour under its full-mapping key; back on
    // the base, the neighbour's XOR-updated key must find that entry.
    auto expect_pure_hit = [&](const Mapping& neighbour, auto evaluate_neighbour,
                               const std::string& where) {
        (void)eval.rebase(neighbour);
        (void)eval.rebase(base);
        const EvalContext::Stats before = eval.stats();
        (void)evaluate_neighbour();
        const EvalContext::Stats& after = eval.stats();
        EXPECT_EQ(after.memo_hits, before.memo_hits + 1) << where;
        EXPECT_EQ(after.incremental_evals, before.incremental_evals) << where;
    };
    Mapping last_neighbour = base;
    for (TaskId t = 0; t < graph.task_count(); t += 3) {
        const CoreId to = static_cast<CoreId>((base.core_of(t) + 1) % 4);
        last_neighbour = base;
        last_neighbour.assign(t, to);
        expect_pure_hit(
            last_neighbour, [&] { return eval.evaluate_neighbor(NeighborOp::move(t, to)); },
            "move " + std::to_string(t));
    }
    for (TaskId a = 0; a + 1 < graph.task_count(); a += 2) {
        const TaskId b = a + 1;
        if (base.core_of(a) == base.core_of(b)) continue;
        Mapping swapped = base;
        swapped.assign(a, base.core_of(b));
        swapped.assign(b, base.core_of(a));
        expect_pure_hit(
            swapped,
            [&] { return eval.evaluate_neighbor({a, base.core_of(b), b, base.core_of(a)}); },
            "swap " + std::to_string(a));
    }

    // After rebasing onto a neighbour, the move back to the old base is
    // a hit under the new base's key.
    eval.rebase(last_neighbour);
    TaskId moved = 0;
    while (last_neighbour.core_of(moved) == base.core_of(moved)) ++moved;
    const std::uint64_t hits = eval.stats().memo_hits;
    (void)eval.evaluate_neighbor(NeighborOp::move(moved, base.core_of(moved)));
    EXPECT_EQ(eval.stats().memo_hits, hits + 1);
}

TEST(EvalContextEquivalence, OverwrittenMemoSlotsNeverServeStaleMetrics) {
    // At 1000 tasks the memo has only a few dozen slots, so a walk of
    // distinct neighbours and rebases overwrites slots constantly.
    // Whatever a slot holds when an earlier neighbour is queried again,
    // the answer must be that neighbour's own metrics.
    const Problem problem = scale_problem(1000, 16, 3, 1);
    const TaskGraph& graph = problem.graph();
    const std::size_t cores = problem.architecture().core_count();
    const EvaluationContext ctx =
        problem.evaluation_context(ScalingVector(cores, ScalingLevel{1}));
    EvalContext eval(ctx);
    Rng rng(51);
    std::vector<Mapping> bases = {round_robin_mapping(graph, cores)};
    std::vector<std::pair<std::size_t, NeighborOp>> visited; // (base index, op)
    (void)eval.rebase(bases.back());
    Mapping neighbour = bases.back();
    for (int i = 0; i < 300; ++i) {
        neighbour = bases.back();
        const NeighborOp op = random_neighbor_op(neighbour, rng, 0.5, false);
        (void)eval.evaluate_neighbor(op);
        visited.emplace_back(bases.size() - 1, op);
        if (i % 20 == 19) {
            bases.push_back(neighbour);
            (void)eval.rebase(bases.back());
        }
    }
    const EvalContext::Stats& stats = eval.stats();
    ASSERT_LT(stats.memo_entries, stats.full_evals + stats.incremental_evals)
        << "no slot was overwritten";

    // Revisit every neighbour, newest first, from its own base.
    const std::uint64_t hits_before = stats.memo_hits;
    std::size_t rebased = bases.size();
    for (std::size_t v = visited.size(); v-- > 0;) {
        const auto& [index, op] = visited[v];
        if (index != rebased) {
            rebased = index;
            expect_bit_identical(eval.rebase(bases[index]), evaluate_design(ctx, bases[index]),
                                 "rebase " + std::to_string(index));
        }
        neighbour = bases[index];
        if (!op.none()) {
            neighbour.assign(op.a, op.core_a);
            neighbour.assign(op.b, op.core_b);
        }
        expect_bit_identical(eval.evaluate_neighbor(op), evaluate_design(ctx, neighbour),
                             "neighbour " + std::to_string(v));
    }
    EXPECT_GT(stats.memo_hits, hits_before) << "no revisit was served from the memo";
}

TEST(EvalContextEquivalence, ArbitraryTwoTaskCandidatesMatchNaive) {
    // A NeighborOp may put any two tasks on any cores, not only the moves
    // and swaps random_neighbor_op draws: a == b, a task kept on its base
    // core, or no change at all. Every such candidate, bounded or not,
    // must be evaluate_design() on the materialized mapping.
    for (const ExposurePolicy policy :
         {ExposurePolicy::full_duration, ExposurePolicy::busy_only}) {
        for (const Workload& w : workloads()) {
            const MpsocArchitecture arch(w.cores, VoltageScalingTable::arm7_three_level());
            ScalingVector levels(w.cores);
            for (std::size_t c = 0; c < w.cores; ++c)
                levels[c] = static_cast<ScalingLevel>(1 + c % 3);
            const EvaluationContext ctx{w.graph, arch, levels,
                                        SeuEstimator{SerModel{}, policy}, w.deadline_seconds};
            const auto last_task = static_cast<std::int64_t>(w.graph.task_count()) - 1;
            const auto last_core = static_cast<std::int64_t>(w.cores) - 1;
            for (const bool naive : {false, true}) {
                EvalContext eval(ctx, {.naive_reference = naive});
                Rng rng(61);
                Mapping base = random_mapping(w.graph, w.cores, rng);
                DesignMetrics base_metrics = eval.rebase(base);
                DesignMetrics reference = base_metrics;
                for (int i = 0; i < 400; ++i) {
                    NeighborOp op{static_cast<TaskId>(rng.uniform_int(0, last_task)),
                                  static_cast<CoreId>(rng.uniform_int(0, last_core)),
                                  static_cast<TaskId>(rng.uniform_int(0, last_task)),
                                  static_cast<CoreId>(rng.uniform_int(0, last_core))};
                    if (i % 7 == 0) op.b = op.a;
                    if (i % 11 == 0) op.core_a = base.core_of(op.a);
                    if (i % 29 == 0) op = NeighborOp{};
                    Mapping candidate = base;
                    if (!op.none()) {
                        candidate.assign(op.b, op.core_b);
                        candidate.assign(op.a, op.core_a); // `a` wins when a == b
                    }
                    const DesignMetrics exact = evaluate_design(ctx, candidate);
                    const std::string where = w.label + (naive ? " naive " : " fast ") +
                                              std::to_string(i);
                    // Bounded first: on a memo miss it may skip, and when
                    // it replays, the plain call below is served by the memo.
                    if (const auto bounded = eval.evaluate_bounded(op, reference, reference))
                        expect_bit_identical(*bounded, exact, where + " bounded");
                    expect_bit_identical(eval.evaluate_neighbor(op), exact, where);
                    reference = i % 2 == 0 ? exact : base_metrics;
                    if (i % 50 == 49) {
                        base = candidate;
                        base_metrics = eval.rebase(base);
                        expect_bit_identical(base_metrics, exact, where + " rebase");
                    }
                }
            }
        }
    }
}

TEST(EvalContextEquivalence, RejectedRebaseKeepsThePreviousBase) {
    // rebase() validates before it changes any state, so a rejected
    // mapping leaves the context answering for the previous base.
    const TaskGraph graph = fig8_example_graph();
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
    const EvaluationContext ctx{graph, arch, {1, 2, 2}, SeuEstimator{SerModel{}},
                                k_fig8_deadline_seconds};
    const Mapping base = round_robin_mapping(graph, 3);
    const NeighborOp op = NeighborOp::move(1, static_cast<CoreId>((base.core_of(1) + 1) % 3));
    Mapping moved = base;
    moved.assign(op.a, op.core_a);
    Mapping wrong_task_count(graph.task_count() + 1, 3);
    for (TaskId t = 0; t < wrong_task_count.task_count(); ++t) wrong_task_count.assign(t, 0);
    const std::vector<std::pair<std::string, Mapping>> rejected_mappings = {
        {"incomplete", Mapping(graph.task_count(), 3)}, {"task count", wrong_task_count}};
    for (const bool naive : {false, true}) {
        EvalContext eval(ctx, {.naive_reference = naive});
        (void)eval.rebase(base);
        for (const auto& [label, rejected] : rejected_mappings) {
            const std::string where = (naive ? "naive " : "fast ") + label;
            EXPECT_THROW((void)eval.rebase(rejected), std::invalid_argument) << where;
            expect_bit_identical(eval.evaluate_neighbor(NeighborOp{}),
                                 evaluate_design(ctx, base), where);
            expect_bit_identical(eval.evaluate_neighbor(op), evaluate_design(ctx, moved),
                                 where + " neighbour");
        }
    }
}

TEST(EvalContextEquivalence, SearchesIdenticalAcrossEvaluationPaths) {
    for (const Workload& w : workloads()) {
        const MpsocArchitecture arch(w.cores, VoltageScalingTable::arm7_three_level());
        ScalingVector levels(w.cores, ScalingLevel{2});
        const EvaluationContext ctx{w.graph, arch, levels, SeuEstimator{SerModel{}},
                                    w.deadline_seconds};
        const Mapping initial = round_robin_mapping(w.graph, w.cores);
        LocalSearchParams options;
        options.max_iterations = 400;
        for (const std::string& name : {std::string("optimized"), std::string("annealing")}) {
            const auto strategy = make_search_strategy(name, options);
            EvalOptions naive_options;
            naive_options.naive_reference = true;
            EvalContext naive_eval(ctx, naive_options);
            const LocalSearchResult reference = strategy->search(naive_eval, initial, 99);

            EvalContext eval(ctx);
            const LocalSearchResult got = strategy->search(eval, initial, 99);
            const std::string where = w.label + " " + name;
            EXPECT_EQ(got.best_mapping, reference.best_mapping) << where;
            expect_bit_identical(got.best_metrics, reference.best_metrics, where);
            EXPECT_EQ(got.found_feasible, reference.found_feasible) << where;
            EXPECT_EQ(got.iterations_run, reference.iterations_run) << where;
            EXPECT_EQ(got.improvements, reference.improvements) << where;
            EXPECT_EQ(got.evaluations, reference.evaluations) << where;
        }
    }
}

TEST(EvalContextEquivalence, ExploreJsonByteIdenticalAcrossPathsStrategiesAndThreads) {
    const Problem problem = ProblemBuilder()
                                .graph(fig8_example_graph())
                                .architecture(3, VoltageScalingTable::arm7_three_level())
                                .deadline_seconds(k_fig8_deadline_seconds)
                                .build();
    for (const std::string& name : {std::string("optimized"), std::string("annealing")}) {
        ExploreOptions options;
        options.strategy = name;
        options.dse.search.max_iterations = 300;
        options.dse.num_threads = 1;
        const std::string reference =
            optimize_report_json(problem, name, explore_naive(problem, options)).dump();
        for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
            ExploreOptions fast = options;
            fast.dse.num_threads = threads;
            const std::string got =
                optimize_report_json(problem, name, explore(problem, fast)).dump();
            EXPECT_EQ(got, reference) << name << " with " << threads << " threads";
        }
    }
}

/// The promotion suite's problems: fig8, MPEG-2, a 40-task TGFF graph
/// and the acceptance problem, each searched at levels 1 + c % 3.
std::vector<std::pair<std::string, Problem>> promotion_problems() {
    auto build = [](TaskGraph graph, std::size_t cores, double deadline) {
        return ProblemBuilder()
            .graph(std::move(graph))
            .architecture(cores, VoltageScalingTable::arm7_three_level())
            .deadline_seconds(deadline)
            .build();
    };
    TgffParams params;
    params.task_count = 40;
    std::vector<std::pair<std::string, Problem>> out;
    out.emplace_back("fig8", build(fig8_example_graph(), 3, k_fig8_deadline_seconds));
    out.emplace_back("mpeg2", build(mpeg2_decoder_graph(), 4, mpeg2_deadline_seconds()));
    out.emplace_back("tgff40", build(generate_tgff_graph(params, 3), 4,
                                     paper_tgff_deadline_seconds(40)));
    out.emplace_back("acceptance", scale_acceptance_problem());
    return out;
}

// Twin contexts driven through the same calls along a random walk of
// moves and swaps: `promoted` takes each accepted step with accept(),
// `rebased` with rebase() of the materialized mapping. Their memos see
// the same inserts, so after every step the base metrics, the next 20
// candidates (evaluate_neighbor, and evaluate_bounded's skip decisions),
// the row tier and every counter but promotions must agree bit for bit.
TEST(EvalContextPromotion, AcceptedStepsMatchAFreshRebase) {
    for (const auto& [label, problem] : promotion_problems()) {
        const std::size_t tasks = problem.graph().task_count();
        const std::size_t cores = problem.architecture().core_count();
        ScalingVector levels(cores);
        for (std::size_t c = 0; c < cores; ++c) levels[c] = static_cast<ScalingLevel>(1 + c % 3);
        const EvaluationContext ctx = problem.evaluation_context(levels);
        EvalContext promoted(ctx);
        EvalContext rebased(ctx);
        Rng rng(31);
        Mapping current = round_robin_mapping(problem.graph(), cores);
        expect_bit_identical(promoted.rebase(current), rebased.rebase(current), label);
        DesignMetrics unbeatable;
        unbeatable.feasible = true;
        DesignMetrics unreachable; // infeasible at T_M 0
        Mapping neighbor;
        Mapping probe;
        std::uint64_t accepts = 0;
        std::uint64_t swaps = 0;
        std::uint64_t memo_hit_accepts = 0;
        for (int step = 0; step < 60; ++step) {
            const std::string where = label + " step " + std::to_string(step);
            neighbor = current;
            const NeighborOp op = random_neighbor_op(neighbor, rng, 0.4, false);
            ASSERT_FALSE(op.none()) << where;
            const DesignMetrics metrics = promoted.evaluate_neighbor(op);
            expect_bit_identical(rebased.evaluate_neighbor(op), metrics, where);
            bool memo_hit = false;
            if (step % 5 == 4) {
                // Another replay displaces op's, which then comes back
                // from the memo: accept() has no replay of op to promote.
                probe = current;
                const NeighborOp other = random_neighbor_op(probe, rng, 0.4, false);
                const std::uint64_t replays = promoted.stats().incremental_evals;
                (void)promoted.evaluate_neighbor(other);
                (void)rebased.evaluate_neighbor(other);
                const std::uint64_t hits = promoted.stats().memo_hits;
                (void)promoted.evaluate_neighbor(op);
                (void)rebased.evaluate_neighbor(op);
                memo_hit = op != other && promoted.stats().incremental_evals > replays &&
                           promoted.stats().memo_hits > hits;
            } else if (rng.uniform() < 0.4) {
                continue; // a rejected step
            }
            const std::uint64_t promotions = promoted.stats().promotions;
            const DesignMetrics base = promoted.accept(op);
            expect_bit_identical(base, metrics, where + " accept");
            expect_bit_identical(rebased.rebase(neighbor), base, where + " rebase");
            expect_bit_identical(base, evaluate_design(ctx, neighbor), where + " naive");
            if (memo_hit) {
                ++memo_hit_accepts;
                EXPECT_EQ(promoted.stats().promotions, promotions) << where;
            }
            ++accepts;
            swaps += op.a != op.b ? 1 : 0;
            std::swap(current, neighbor);
            for (int k = 0; k < 20; ++k) {
                const std::string at = where + " candidate " + std::to_string(k);
                probe = current;
                const NeighborOp next = random_neighbor_op(probe, rng, 0.4, false);
                expect_bit_identical(promoted.evaluate_neighbor(next),
                                     rebased.evaluate_neighbor(next), at);
                const DesignMetrics& result = k % 3 == 0   ? base
                                              : k % 3 == 1 ? unbeatable
                                                           : unreachable;
                const NeighborOp move = NeighborOp::move(
                    static_cast<TaskId>(rng.uniform_int(0, static_cast<std::int64_t>(tasks) - 1)),
                    static_cast<CoreId>(
                        rng.uniform_int(0, static_cast<std::int64_t>(cores) - 1)));
                const std::optional<DesignMetrics> a =
                    promoted.evaluate_bounded(move, base, result);
                const std::optional<DesignMetrics> b = rebased.evaluate_bounded(move, base, result);
                ASSERT_EQ(a.has_value(), b.has_value()) << at;
                if (a) expect_bit_identical(*a, *b, at);
                EXPECT_EQ(promoted.skip_moves_of(move.a, base, result),
                          rebased.skip_moves_of(move.a, base, result))
                    << at;
            }
        }
        const EvalContext::Stats& p = promoted.stats();
        const EvalContext::Stats& r = rebased.stats();
        EXPECT_EQ(p.full_evals, r.full_evals) << label;
        EXPECT_EQ(p.incremental_evals, r.incremental_evals) << label;
        EXPECT_EQ(p.bound_skips, r.bound_skips) << label;
        EXPECT_EQ(p.tm_skips, r.tm_skips) << label;
        EXPECT_EQ(p.row_skips, r.row_skips) << label;
        EXPECT_EQ(p.memo_hits, r.memo_hits) << label;
        EXPECT_EQ(p.memo_entries, r.memo_entries) << label;
        EXPECT_EQ(r.promotions, 0u) << label;
        // Not vacuous: promotions, swaps and memo-hit fallbacks all ran.
        EXPECT_GT(p.promotions, 0u) << label;
        EXPECT_LT(p.promotions, accepts) << label;
        EXPECT_GT(swaps, 0u) << label;
        EXPECT_GT(memo_hit_accepts, 0u) << label;
    }
}

TEST(EvalContextEquivalence, Validation) {
    const TaskGraph graph = fig8_example_graph();
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
    const EvaluationContext ctx{graph, arch, {1, 2, 2}, SeuEstimator{SerModel{}},
                                k_fig8_deadline_seconds};
    EvalContext eval(ctx);
    const Mapping incomplete(graph.task_count(), 3);
    EXPECT_THROW((void)eval.rebase(incomplete), std::invalid_argument);
    EXPECT_THROW((void)eval.evaluate_neighbor(NeighborOp::move(0, 0)),
                 std::logic_error); // no base yet
    EXPECT_THROW((void)eval.accept(NeighborOp::move(0, 0)), std::logic_error);
    EXPECT_THROW((void)eval.skip_moves_of(0, DesignMetrics{}, DesignMetrics{}),
                 std::logic_error);
    const Mapping base = round_robin_mapping(graph, 3);
    const DesignMetrics base_metrics = eval.rebase(base);
    EXPECT_THROW((void)eval.evaluate_neighbor(NeighborOp::move(0, 99)), std::invalid_argument);
    EXPECT_THROW((void)eval.evaluate_neighbor(NeighborOp::move(999, 0)),
                 std::invalid_argument);
    // A rejected accept() keeps the base; so does accepting no change.
    EXPECT_THROW((void)eval.accept(NeighborOp::move(0, 99)), std::invalid_argument);
    EXPECT_THROW((void)eval.skip_moves_of(999, base_metrics, base_metrics),
                 std::invalid_argument);
    expect_bit_identical(eval.accept(NeighborOp{}), base_metrics, "accept none");
    expect_bit_identical(eval.evaluate_neighbor(NeighborOp{}), base_metrics, "kept base");
    // Identity mutations short-circuit to the base metrics.
    expect_bit_identical(eval.evaluate_neighbor(NeighborOp::move(0, base.core_of(0))),
                         base_metrics, "identity move");
    expect_bit_identical(eval.evaluate_neighbor({1, base.core_of(1), 1, base.core_of(1)}),
                         base_metrics, "identity swap");
}

} // namespace
} // namespace seamap
