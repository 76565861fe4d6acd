// google-benchmark microbenchmarks of the library's hot kernels: list
// scheduling, register-union computation, Gamma estimation, full design
// evaluation, a simulated-annealing step, the scaling enumerator, the
// explorer's producer (lazy queue + case bounds), a fault-injection
// trial, the campaign trial and its engine layer (fork_at or fork_block
// plus draws), and the public-API search strategies behind their common
// interface. These are the per-iteration costs that determine how much
// design space a given search budget covers.
#include "reliability/register_usage.h"
#include "seamap/seamap.h"

#include "api/scenarios.h"
#include "core/initial_mapping.h"
#include "core/lazy_scaling_queue.h"
#include "core/optimized_mapping.h"
#include "core/scaling_bounds.h"
#include "sim/campaign.h"
#include "sim/fault_injection.h"
#include "support/naive_eval_strategy.h"
#include "support/scaling_walker.h"
#include "taskgraph/mpeg2.h"
#include "tgff/random_graph.h"

#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace seamap {
namespace {

TaskGraph benchmark_graph(std::int64_t tasks) {
    if (tasks <= 11) return mpeg2_decoder_graph();
    TgffParams params;
    params.task_count = static_cast<std::size_t>(tasks);
    return generate_tgff_graph(params, 42);
}

void bm_list_scheduler(benchmark::State& state) {
    const TaskGraph graph = benchmark_graph(state.range(0));
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const Mapping mapping = round_robin_mapping(graph, 4);
    const ScalingVector levels = {1, 2, 2, 3};
    const ListScheduler scheduler;
    for (auto _ : state) {
        benchmark::DoNotOptimize(scheduler.schedule(graph, mapping, arch, levels));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(graph.task_count()));
}
BENCHMARK(bm_list_scheduler)->Arg(11)->Arg(60)->Arg(100);

void bm_register_union(benchmark::State& state) {
    const TaskGraph graph = benchmark_graph(state.range(0));
    const Mapping mapping = round_robin_mapping(graph, 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(per_core_register_bits(graph, mapping, 4));
    }
}
BENCHMARK(bm_register_union)->Arg(11)->Arg(60)->Arg(100);

void bm_gamma_estimate(benchmark::State& state) {
    const TaskGraph graph = benchmark_graph(state.range(0));
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const Mapping mapping = round_robin_mapping(graph, 4);
    const ScalingVector levels = {1, 2, 2, 3};
    const Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, levels);
    const SeuEstimator estimator{SerModel{}};
    for (auto _ : state) {
        benchmark::DoNotOptimize(estimator.estimate(graph, mapping, arch, levels, schedule));
    }
}
BENCHMARK(bm_gamma_estimate)->Arg(11)->Arg(60)->Arg(100);

void bm_full_design_evaluation(benchmark::State& state) {
    const TaskGraph graph = benchmark_graph(state.range(0));
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const EvaluationContext ctx{graph, arch, {1, 2, 2, 3}, SeuEstimator{SerModel{}}, 10.0};
    const Mapping mapping = round_robin_mapping(graph, 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(evaluate_design(ctx, mapping));
    }
}
BENCHMARK(bm_full_design_evaluation)->Arg(11)->Arg(60)->Arg(100);

// Arg 1000 is the tgff-scale case, where Fig. 6 is the largest per-slot
// cost of an explore: scale_problem(1000, 16, 3, 1) with all 16 cores at
// level 1 (pinned in tools/run_bench.sh).
void bm_initial_sea_mapping(benchmark::State& state) {
    if (state.range(0) == 1000) {
        const Problem problem = scale_problem(1000, 16, 3, 1);
        const EvaluationContext ctx = problem.evaluation_context(ScalingVector(16, 1));
        for (auto _ : state) benchmark::DoNotOptimize(initial_sea_mapping(ctx));
        return;
    }
    const TaskGraph graph = benchmark_graph(state.range(0));
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const EvaluationContext ctx{graph, arch, {1, 2, 2, 3}, SeuEstimator{SerModel{}}, 10.0};
    for (auto _ : state) {
        benchmark::DoNotOptimize(initial_sea_mapping(ctx));
    }
}
BENCHMARK(bm_initial_sea_mapping)->Arg(11)->Arg(60)->Arg(100)->Arg(1000);

void bm_sa_annealing_run(benchmark::State& state) {
    const TaskGraph graph = benchmark_graph(60);
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const EvaluationContext ctx{graph, arch, {2, 2, 2, 2}, SeuEstimator{SerModel{}}, 1e9};
    LocalSearchParams params;
    params.max_iterations = static_cast<std::uint64_t>(state.range(0));
    const AnnealingStrategy mapper(params, MappingObjective::seu_count);
    const Mapping initial = round_robin_mapping(graph, 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapper.search(ctx, initial, params.seed));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(bm_sa_annealing_run)->Arg(100)->Arg(1000);

// The public-API contract both engines sit behind: one optimize-grade
// search per scaling, through a strategy built by name
// (make_search_strategy). Measures what one explorer worker pays per
// scaling combination.
void bm_strategy_search(benchmark::State& state, const std::string& strategy_name) {
    const TaskGraph graph = benchmark_graph(60);
    const Problem problem = ProblemBuilder()
                                .graph(graph)
                                .architecture(4, VoltageScalingTable::arm7_three_level())
                                .deadline_seconds(1e9)
                                .build();
    const EvaluationContext ctx = problem.evaluation_context({2, 2, 2, 2});
    LocalSearchParams options;
    options.max_iterations = static_cast<std::uint64_t>(state.range(0));
    const auto strategy = make_search_strategy(strategy_name, options);
    const Mapping initial = round_robin_mapping(graph, 4);
    std::uint64_t seed = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(strategy->search(ctx, initial, seed++));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK_CAPTURE(bm_strategy_search, optimized, "optimized")->Arg(100)->Arg(1000);
BENCHMARK_CAPTURE(bm_strategy_search, annealing, "annealing")->Arg(100)->Arg(1000);

// --- EvalContext before/after benches ---------------------------------
// Each pair runs the identical workload through the naive
// evaluate_design() path (EvalOptions::naive_reference) and the
// EvalContext fast path; results are bit-identical (pinned by
// tests/core/eval_context_equivalence_test.cpp), so the ratio is pure
// overhead removed.

EvalOptions eval_options(bool naive) {
    EvalOptions options;
    options.naive_reference = naive;
    return options;
}

// Full evaluation: schedule + registers + Gamma + power. rebase() is
// the context's only full pass, so the ctx variant also records the
// base's timeline state and files the mapping in the memo.
void bm_eval_full(benchmark::State& state, bool naive) {
    const TaskGraph graph = benchmark_graph(state.range(0));
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const EvaluationContext ctx{graph, arch, {1, 2, 2, 3}, SeuEstimator{SerModel{}}, 10.0};
    EvalContext eval(ctx, eval_options(naive));
    const Mapping mapping = round_robin_mapping(graph, 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(eval.rebase(mapping));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(graph.task_count()));
}
BENCHMARK_CAPTURE(bm_eval_full, naive, true)->Arg(11)->Arg(60)->Arg(100);
BENCHMARK_CAPTURE(bm_eval_full, ctx, false)->Arg(11)->Arg(60)->Arg(100);

// Schedule-dominated evaluation on a fresh mapping every iteration (a
// new base each time, so no memo reuse is possible): measures the
// precomputed-order, allocation-free timing pass against the naive list
// scheduler path.
void bm_eval_schedule(benchmark::State& state, bool naive) {
    const TaskGraph graph = benchmark_graph(state.range(0));
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const EvaluationContext ctx{graph, arch, {1, 2, 2, 3}, SeuEstimator{SerModel{}}, 10.0};
    EvalContext eval(ctx, eval_options(naive));
    Mapping mapping = round_robin_mapping(graph, 4);
    TaskId t = 0;
    for (auto _ : state) {
        mapping.assign(t, (mapping.core_of(t) + 1) % 4); // new mapping each iteration
        t = static_cast<TaskId>((t + 1) % graph.task_count());
        benchmark::DoNotOptimize(eval.rebase(mapping));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(graph.task_count()));
}
BENCHMARK_CAPTURE(bm_eval_schedule, naive, true)->Arg(11)->Arg(60)->Arg(100);
BENCHMARK_CAPTURE(bm_eval_schedule, ctx, false)->Arg(11)->Arg(60)->Arg(100);

// The SA neighbourhood step — the explorer's dominant cost: one random
// move/swap off the current mapping, fully evaluated, occasionally
// accepted (rebasing the incremental anchor like the real walk does).
void bm_sa_neighborhood_step(benchmark::State& state, bool naive) {
    const TaskGraph graph = benchmark_graph(state.range(0));
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const EvaluationContext ctx{graph, arch, {2, 2, 2, 2}, SeuEstimator{SerModel{}}, 1e9};
    EvalContext eval(ctx, eval_options(naive));
    Mapping current = round_robin_mapping(graph, 4);
    eval.rebase(current);
    Rng rng(7);
    Mapping neighbor;
    std::uint64_t step = 0;
    for (auto _ : state) {
        neighbor = current;
        const NeighborOp op = random_neighbor_op(neighbor, rng, 0.3, false);
        if (!op.none())
            benchmark::DoNotOptimize(eval.evaluate_neighbor(op));
        if (++step % 8 == 0) { // accept ~1 in 8, like a cooling walk
            std::swap(current, neighbor);
            eval.rebase(current);
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(bm_sa_neighborhood_step, naive, true)->Arg(11)->Arg(60)->Arg(100);
BENCHMARK_CAPTURE(bm_sa_neighborhood_step, ctx, false)->Arg(11)->Arg(60)->Arg(100);

// End-to-end Fig. 4 exploration through the public API (the naive
// variant wraps the strategy in NaiveEvalStrategy). explore() runs its
// searches on worker threads even at num_threads = 1, so this and
// every explore bench below time wall clock (UseRealTime).
void bm_explore_end_to_end(benchmark::State& state, bool naive) {
    const Problem problem = ProblemBuilder()
                                .graph(mpeg2_decoder_graph())
                                .architecture(4, VoltageScalingTable::arm7_three_level())
                                .deadline_seconds(mpeg2_deadline_seconds())
                                .build();
    ExploreOptions options;
    options.dse.search.max_iterations = 200;
    for (auto _ : state) {
        benchmark::DoNotOptimize(naive ? explore_naive(problem, options)
                                       : explore(problem, options));
    }
}
BENCHMARK_CAPTURE(bm_explore_end_to_end, naive, true)->UseRealTime();
BENCHMARK_CAPTURE(bm_explore_end_to_end, ctx, false)->UseRealTime();

// The bound-driven branch-and-bound explorer against the exhaustive
// Fig. 4 sweep, on the shared prunable scenario of api/scenarios.h (a
// pipelined private-register workload on a deep dyadic DVS ladder in
// a clock-tree-dominated power regime with nearly voltage-flat SER,
// under a time constraint at 2.5x the nominal T_M lower bound — the
// same Problem tests/core/dse_prune_test.cpp pins byte-identical
// best/pareto_front on). The pruned run just skips the provably
// dominated scaling combinations.
void bm_explore_prunable(benchmark::State& state, bool prune) {
    const Problem problem = prunable_pipeline_problem(8);
    ExploreOptions options;
    options.dse.search.max_iterations = 2'000;
    options.dse.prune = prune;
    options.dse.num_threads = static_cast<std::size_t>(state.range(0));
    DseResult last;
    for (auto _ : state) {
        last = explore(problem, options);
        benchmark::DoNotOptimize(last);
    }
    state.counters["searched"] = static_cast<double>(last.scalings_searched);
    state.counters["pruned"] = static_cast<double>(last.scalings_pruned);
}
BENCHMARK_CAPTURE(bm_explore_prunable, exhaustive, false)
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_explore_prunable, pruned, true)
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The giant-instance tentpole point: lazy bound-sorted enumeration on
// the committed 20349-slot acceptance scenario (see
// scale_acceptance_problem and tests/integration/dse_scale_test.cpp,
// which pins < 50% of slots emitted with byte-identical outputs).
// Single pass per measurement — these runs take tens of seconds, and
// the counters are the point: emitted/pruned tell the lazy-vs-
// materialized story, wall-clock the payoff.
void bm_explore_scale(benchmark::State& state, bool prune) {
    const Problem problem = scale_acceptance_problem();
    ExploreOptions options;
    options.dse.search.max_iterations = 300;
    options.dse.search.restarts = 1;
    options.dse.search.seed = 1;
    options.dse.prune = prune;
    options.dse.num_threads = static_cast<std::size_t>(state.range(0));
    DseResult last;
    for (auto _ : state) {
        last = explore(problem, options);
        benchmark::DoNotOptimize(last);
    }
    state.counters["total"] = static_cast<double>(last.scalings_total);
    state.counters["emitted"] = static_cast<double>(last.scalings_emitted);
    state.counters["searched"] = static_cast<double>(last.scalings_searched);
    state.counters["pruned"] = static_cast<double>(last.scalings_pruned);
}
BENCHMARK_CAPTURE(bm_explore_scale, materialized, false)
    ->Arg(8)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_explore_scale, lazy, true)
    ->Arg(1)
    ->Arg(8)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The producer layer of the wallbench `acceptance` workload: the bounds
// model plus a full drain of scale_acceptance_problem()'s lazy queue,
// which gates every one of its 20349 combinations on the T_M bound and
// computes each gate passer's case staircase once. The explorer's
// producer thread does exactly this serially while the workers search;
// each gate passer's cases are taken the way explore() takes them.
void bm_producer_acceptance(benchmark::State& state) {
    const Problem problem = scale_acceptance_problem();
    std::uint64_t gate_passed = 0;
    std::uint64_t cases = 0;
    for (auto _ : state) {
        const ScalingBoundsModel model(problem.graph(), problem.architecture(),
                                       problem.deadline_seconds(), problem.ser_model(),
                                       problem.exposure_policy());
        LazyScalingQueue queue(problem.graph(), problem.architecture(),
                               problem.deadline_seconds(), &model);
        gate_passed = 0;
        cases = 0;
        while (std::optional<LazyScalingQueue::Slot> slot = queue.pop()) {
            if (!slot->gate_passed) continue;
            const std::vector<ScalingBounds> taken = std::move(slot->cases);
            ++gate_passed;
            cases += taken.size();
        }
        benchmark::DoNotOptimize(cases);
    }
    state.counters["gate_passed"] = static_cast<double>(gate_passed);
    state.counters["cases_per_slot"] =
        gate_passed == 0 ? 0.0 : static_cast<double>(cases) / static_cast<double>(gate_passed);
}
BENCHMARK(bm_producer_acceptance)->Unit(benchmark::kMillisecond);

// The search layer of the wallbench `acceptance` workload: one slot of
// scale_acceptance_problem() searched by the Fig. 7 strategy at its 60
// iterations, from the Fig. 6 initial mapping the explorer starts from.
// One context is rebound to the slot per iteration, as an explorer
// worker's context is rebound to every slot it searches. The counters
// show how much of the sweep the schedule-free bound skips, how many of
// those skips the T_M tier decides before any register union is built
// (tm_skips; the rest are Gamma-tier skips) and how many of those the
// row tier decides a whole task at a time (row_skips), plus the walk's
// accepted steps promoted from their own replay (promotions).
void bm_search_acceptance_slot(benchmark::State& state) {
    const Problem problem = scale_acceptance_problem();
    const std::size_t cores = problem.architecture().core_count();
    ScalingVector levels(cores);
    for (std::size_t c = 0; c < cores; ++c) levels[c] = static_cast<ScalingLevel>(1 + c % 3);
    const EvaluationContext ctx = problem.evaluation_context(levels);
    LocalSearchParams params;
    params.max_iterations = 60;
    params.restarts = 1;
    params.seed = 1;
    const OptimizedMappingStrategy search(params);
    const Mapping initial = initial_sea_mapping(ctx);
    LocalSearchResult last;
    EvalContext::Stats stats;
    EvalContext eval(std::make_shared<const EvalPlan>(problem.graph(), cores));
    for (auto _ : state) {
        eval.rebind(ctx);
        last = search.search(eval, initial, params.seed);
        stats = eval.stats();
        benchmark::DoNotOptimize(last);
    }
    state.counters["evaluations"] = static_cast<double>(last.evaluations);
    state.counters["replays"] = static_cast<double>(stats.incremental_evals);
    state.counters["bound_skips"] = static_cast<double>(stats.bound_skips);
    state.counters["tm_skips"] = static_cast<double>(stats.tm_skips);
    state.counters["row_skips"] = static_cast<double>(stats.row_skips);
    state.counters["promotions"] = static_cast<double>(stats.promotions);
}
BENCHMARK(bm_search_acceptance_slot)->Unit(benchmark::kMillisecond);

// The per-slot setup layer of the wallbench `acceptance` workload: for
// every gate passer of scale_acceptance_problem()'s lazy queue, the
// slot's evaluation context plus the Fig. 6 initial mapping. `rebind`
// rebinds one context over a shared plan, as an explorer worker does;
// `construct` builds a fresh EvalContext per slot, the setup before
// plans. One iteration covers every gate passer; `s_per_slot` is the
// time per slot.
void bm_eval_rebind(benchmark::State& state, bool rebind) {
    const Problem problem = scale_acceptance_problem();
    const ScalingBoundsModel model(problem.graph(), problem.architecture(),
                                   problem.deadline_seconds(), problem.ser_model(),
                                   problem.exposure_policy());
    LazyScalingQueue queue(problem.graph(), problem.architecture(), problem.deadline_seconds(),
                           &model);
    std::vector<ScalingVector> slots;
    while (std::optional<LazyScalingQueue::Slot> slot = queue.pop())
        if (slot->gate_passed) slots.push_back(slot->levels);
    const std::size_t cores = problem.architecture().core_count();
    EvalContext eval(std::make_shared<const EvalPlan>(problem.graph(), cores));
    for (auto _ : state) {
        for (const ScalingVector& levels : slots) {
            const EvaluationContext ctx = problem.evaluation_context(levels);
            std::optional<EvalContext> fresh;
            if (rebind)
                eval.rebind(ctx);
            else
                fresh.emplace(ctx);
            Mapping initial = initial_sea_mapping(ctx);
            benchmark::DoNotOptimize(initial);
        }
    }
    state.counters["slots"] = static_cast<double>(slots.size());
    state.counters["s_per_slot"] = benchmark::Counter(
        static_cast<double>(slots.size()),
        benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(bm_eval_rebind, rebind, true)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_eval_rebind, construct, false)->Unit(benchmark::kMillisecond);

// The explorer's worker layer at 1, 2 and 4 threads: the wallbench
// `acceptance` workload's explore (scale_acceptance_problem() at 60
// iterations, 1 restart, seed 1). The serial producer and the final
// fold run on the calling thread at every thread count, so the speedup
// over 1 thread is bounded by their share.
void bm_explore_acceptance_threads(benchmark::State& state) {
    const Problem problem = scale_acceptance_problem();
    ExploreOptions options;
    options.dse.search.max_iterations = 60;
    options.dse.search.restarts = 1;
    options.dse.search.seed = 1;
    options.dse.num_threads = static_cast<std::size_t>(state.range(0));
    DseResult last;
    for (auto _ : state) {
        last = explore(problem, options);
        benchmark::DoNotOptimize(last);
    }
    state.counters["searched"] = static_cast<double>(last.scalings_searched);
    state.counters["pruned"] = static_cast<double>(last.scalings_pruned);
}
BENCHMARK(bm_explore_acceptance_threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Raw giant-graph throughput of the --scale TGFF family: a 1000-task
// graph through the whole lazy pipeline (gate, bounds, SoA eval,
// rank-heap scheduling order) with a token per-slot budget.
void bm_explore_scale_tgff(benchmark::State& state) {
    const Problem problem = scale_problem(1000, 16, 3, 1);
    ExploreOptions options;
    options.dse.search.max_iterations = 5;
    options.dse.search.restarts = 1;
    options.dse.num_threads = static_cast<std::size_t>(state.range(0));
    DseResult last;
    for (auto _ : state) {
        last = explore(problem, options);
        benchmark::DoNotOptimize(last);
    }
    state.counters["total"] = static_cast<double>(last.scalings_total);
    state.counters["searched"] = static_cast<double>(last.scalings_searched);
}
BENCHMARK(bm_explore_scale_tgff)
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void bm_scaling_enumeration(benchmark::State& state) {
    const auto cores = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        ScalingEnumerator enumerator(cores, 3);
        std::size_t count = 0;
        while (enumerator.next()) ++count;
        benchmark::DoNotOptimize(count);
    }
}
BENCHMARK(bm_scaling_enumeration)->Arg(4)->Arg(8)->Arg(16);

// One FaultInjector::inject on the register-file exposure profile. The
// loop reuses one Rng, so this is the draws alone: it never pays the
// per-trial fork_at a campaign trial does (bm_campaign_trial does).
void bm_fault_injection_trial(benchmark::State& state) {
    const TaskGraph graph = benchmark_graph(state.range(0));
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const Mapping mapping = round_robin_mapping(graph, 4);
    const ScalingVector levels = {2, 2, 2, 2};
    const Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, levels);
    const FaultInjector injector(SerModel{}, SimExposurePolicy::full_duration);
    Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            injector.inject(graph, mapping, arch, levels, schedule, rng));
    }
}
BENCHMARK(bm_fault_injection_trial)->Arg(11)->Arg(100);

// The engine layer of a lone stream: fork_at(trial) (seeding 312 state
// words) plus k raw draws. A campaign trial on the MPEG-2 design below
// reads 121.6 words on average (92 to 162 over 20000 trials), hence
// k = 121; 312 is one whole twist's worth.
void bm_rng_fork_draws(benchmark::State& state) {
    const Rng root(1);
    const auto draws = state.range(0);
    std::uint64_t trial = 0;
    for (auto _ : state) {
        Rng stream = root.fork_at(trial++);
        std::uint64_t x = 0;
        for (std::int64_t i = 0; i < draws; ++i) x ^= stream.next_u64();
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(bm_rng_fork_draws)->Arg(1)->Arg(121)->Arg(312);

// The campaign trial's engine layer: fork_block seeds four consecutive
// trials' streams side by side, then each takes k raw draws. stream_s is
// the time per stream, comparable with one bm_rng_fork_draws iteration.
void bm_rng_fork_block(benchmark::State& state) {
    const Rng root(1);
    const auto draws = state.range(0);
    std::array<Rng, 4> streams{root, root, root, root};
    std::uint64_t trial = 0;
    for (auto _ : state) {
        root.fork_block(trial, streams);
        trial += streams.size();
        std::uint64_t x = 0;
        for (Rng& stream : streams)
            for (std::int64_t i = 0; i < draws; ++i) x ^= stream.next_u64();
        benchmark::DoNotOptimize(x);
    }
    state.counters["stream_s"] =
        benchmark::Counter(static_cast<double>(streams.size()),
                           benchmark::Counter::kIsIterationInvariantRate |
                               benchmark::Counter::kInvert);
}
BENCHMARK(bm_rng_fork_block)->Arg(1)->Arg(121);

// The campaign trial: a 1-thread CampaignEngine::run, all three sites,
// on a fixed MPEG-2 design (round-robin on 4 cores, levels {2, 2, 3, 2};
// 26 fault sources with means from 17 to 8.1e4, so every draw takes
// Devroye's rejection path, as on the design the `mpeg2_campaign`
// wallbench workload validates). trial_s is the time per trial: a
// quarter of a fork_block, 26 Poisson draws reading 121.6 engine words
// on average, and the tally.
void bm_campaign_trial(benchmark::State& state) {
    constexpr std::uint64_t trials = 2'000;
    const TaskGraph graph = mpeg2_decoder_graph();
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const Mapping mapping = round_robin_mapping(graph, 4);
    const ScalingVector levels = {2, 2, 3, 2};
    const Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, levels);
    CampaignConfig config;
    config.trials = trials;
    config.shard_size = 1024;
    config.num_threads = 1;
    config.seed = 1;
    const CampaignEngine engine(SerModel{}, config);
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(graph, mapping, arch, levels, schedule));
    }
    state.counters["trial_s"] =
        benchmark::Counter(static_cast<double>(trials),
                           benchmark::Counter::kIsIterationInvariantRate |
                               benchmark::Counter::kInvert);
}
BENCHMARK(bm_campaign_trial)->Unit(benchmark::kMillisecond);

// Campaign throughput: trials/s of the sharded CampaignEngine on the
// register-file site, dispatched over all hardware threads. The work
// runs off the main thread, so the rate is taken from wall-clock time.
constexpr std::uint64_t k_campaign_bench_trials = 2'000;

void bm_campaign_sharded(benchmark::State& state) {
    const TaskGraph graph = benchmark_graph(state.range(0));
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const Mapping mapping = round_robin_mapping(graph, 4);
    const ScalingVector levels = {2, 2, 2, 2};
    const Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, levels);
    CampaignConfig config;
    config.trials = k_campaign_bench_trials;
    config.shard_size = 128;
    config.num_threads = 0; // hardware
    config.seed = 7;
    config.weights = FaultSiteWeights::register_file_only();
    const CampaignEngine engine(SerModel{}, config);
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(graph, mapping, arch, levels, schedule));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(k_campaign_bench_trials));
}
BENCHMARK(bm_campaign_sharded)
    ->Arg(11)
    ->Arg(100)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace
} // namespace seamap
