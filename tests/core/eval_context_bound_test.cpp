// Soundness of the Fig. 7 sweep's schedule-free bound
// (EvalContext::evaluate_bounded). A skipped candidate is never
// scheduled, so the bound is only correct if a skip implies the
// candidate's exact metrics — evaluate_design(), the naive reference —
// improve neither reference under the sweep's rules. Exercised over
// small TGFF problems shaped like the differential fuzz corpus, at batch
// counts 1/16/256 and under both exposure policies, with every single-
// task move off several bases and every feasible/infeasible pairing of
// the two references, their cutoffs placed exactly at the candidate's
// T_M or Gamma (ties), one ulp above and one ulp below. Each skip is
// also attributed to its tier: the T_M tier (tm_lb misses the deadline,
// stats().tm_skips) or the Gamma tier, with tm_lb recomputed here from
// the naive reference's schedules. The sweep's row tier
// (EvalContext::skip_moves_of) is checked the same way: its bound,
// recomputed here, must sit at or below every move's tm_lb, and a row it
// rules out must hold no move that evaluate_bounded() would keep.
#include "seamap/seamap.h"

#include "sched/list_scheduler.h"
#include "taskgraph/register_file.h"
#include "tgff/random_graph.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace seamap {
namespace {

constexpr std::uint64_t k_batch_counts[] = {1, 16, 256};
constexpr ExposurePolicy k_policies[] = {ExposurePolicy::full_duration,
                                         ExposurePolicy::busy_only};
constexpr int k_seeds_per_shape = 6;
constexpr int k_bases = 3;

/// Seed -> small random Problem in the fuzz corpus's knob space, plus
/// sparse graphs, whose latency often lies in the schedule prefix (where
/// the T_M bound is exact), and a deadline spread that makes both
/// feasible and infeasible moves common.
Problem random_problem(std::uint64_t seed, std::uint64_t batches, ExposurePolicy policy) {
    Rng rng(splitmix64(seed ^ 0xb0a4d5ULL));
    TgffParams tgff;
    tgff.task_count = 6 + static_cast<std::size_t>(rng.uniform_int(0, 8));
    tgff.comm_cost_max = 1 + static_cast<std::uint32_t>(rng.uniform_int(0, 5));
    tgff.output_buffer_fraction = 0.25 * static_cast<double>(rng.uniform_int(0, 3));
    tgff.out_degree_mean = 0.125 * static_cast<double>(1 << rng.uniform_int(0, 4));
    tgff.batch_count = batches;
    tgff.name = "bound_" + std::to_string(seed);
    TaskGraph graph = generate_tgff_graph(tgff, splitmix64(seed));

    const std::size_t cores = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
    const std::size_t levels = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
    std::vector<double> f_mhz;
    double f = 200.0;
    for (std::size_t i = 0; i < levels; ++i, f *= rng.uniform(0.4, 0.8)) f_mhz.push_back(f);
    PowerParams power;
    power.idle_activity = rng.uniform(0.1, 0.9);
    SerParams ser;
    ser.voltage_exponent_k = rng.uniform(0.1, 3.0);
    MpsocArchitecture arch(cores, VoltageScalingTable::from_frequencies(f_mhz), power);
    const double deadline = rng.uniform(0.9, 2.0) *
                            tm_lower_bound_seconds(graph, arch, ScalingVector(cores, 1));
    return ProblemBuilder()
        .graph(std::move(graph))
        .architecture(std::move(arch))
        .deadline_seconds(deadline)
        .ser_model(SerModel{ser})
        .exposure_policy(policy)
        .build();
}

ScalingVector random_levels(const Problem& problem, Rng& rng) {
    const MpsocArchitecture& arch = problem.architecture();
    ScalingVector levels(arch.core_count());
    for (ScalingLevel& level : levels)
        level = static_cast<ScalingLevel>(rng.uniform_int(
            1, static_cast<std::int64_t>(arch.scaling_table().level_count())));
    return levels;
}

Mapping random_mapping(std::size_t tasks, std::size_t cores, Rng& rng) {
    Mapping mapping(tasks, cores);
    for (TaskId t = 0; t < tasks; ++t)
        mapping.assign(t, static_cast<CoreId>(
                              rng.uniform_int(0, static_cast<std::int64_t>(cores) - 1)));
    return mapping;
}

/// The sweep's improvement rule against one reference. Both of its
/// tests reduce to it: walk_improves directly, and consider_best because
/// the result's best metrics are feasible exactly when a feasible design
/// has been found.
bool improves(const DesignMetrics& candidate, const DesignMetrics& reference) {
    if (!reference.feasible)
        return candidate.feasible || candidate.tm_seconds < reference.tm_seconds;
    return candidate.feasible && candidate.gamma < reference.gamma;
}

/// One reference shape: feasible or not, and where its cutoff sits
/// relative to the candidate's exact value (-1 one ulp below, 0 tie,
/// +1 one ulp above). A feasible reference is cut on Gamma, an
/// infeasible one on T_M.
struct RefShape {
    bool feasible;
    int ulps;
};

double nudge(double value, int ulps) {
    if (ulps == 0) return value;
    return std::nextafter(value, ulps > 0 ? std::numeric_limits<double>::infinity()
                                          : -std::numeric_limits<double>::infinity());
}

DesignMetrics make_reference(const RefShape& shape, const DesignMetrics& exact) {
    DesignMetrics reference;
    reference.feasible = shape.feasible;
    if (shape.feasible)
        reference.gamma = nudge(exact.gamma, shape.ulps);
    else
        reference.tm_seconds = nudge(exact.tm_seconds, shape.ulps);
    return reference;
}

std::vector<RefShape> ref_shapes() {
    std::vector<RefShape> out;
    for (const bool feasible : {false, true})
        for (const int ulps : {-1, 0, 1}) out.push_back({feasible, ulps});
    return out;
}

/// The schedule-free lower bounds of one candidate, recomputed from the
/// naive reference with the context's floating-point operations: tm_lb
/// is the base schedule's latency over the placements before the
/// earliest one the candidate can change, plus (B-1) times the
/// candidate's initiation interval, and gamma_lb is eq. 3 summed over
/// the candidate's register unions with tm_lb as the full_duration
/// exposure.
struct LowerBounds {
    double tm = 0.0;
    double gamma = 0.0;
    bool tm_within_deadline = false; ///< false: the T_M tier decides
};

class BoundOracle {
public:
    explicit BoundOracle(const EvaluationContext& ctx)
        : ctx_(ctx), order_(static_schedule_order(ctx.graph)), pos_(order_.size()) {
        for (std::size_t p = 0; p < order_.size(); ++p) pos_[order_[p]] = p;
    }

    void rebase(const Mapping& base) {
        base_ = ListScheduler().schedule(ctx_.graph, base, ctx_.arch, ctx_.levels);
    }

    /// Bounds of `candidate`, which differs from the base in `changed`.
    LowerBounds of(const Mapping& candidate, std::initializer_list<TaskId> changed) const {
        std::size_t suffix = order_.size();
        for (const TaskId t : changed) {
            suffix = std::min(suffix, pos_[t]);
            for (const std::size_t idx : ctx_.graph.in_edge_indices(t))
                suffix = std::min(suffix, pos_[ctx_.graph.edge(idx).src]);
        }
        double prefix = 0.0;
        for (std::size_t p = 0; p < suffix; ++p)
            prefix = std::max(prefix, base_.entries[order_[p]].finish_seconds);
        Schedule schedule =
            ListScheduler().schedule(ctx_.graph, candidate, ctx_.arch, ctx_.levels);
        const double batches = static_cast<double>(ctx_.graph.batch_count());
        LowerBounds bounds;
        bounds.tm = prefix + (batches - 1.0) * schedule.initiation_interval_seconds;
        bounds.tm_within_deadline = bounds.tm <= ctx_.deadline_seconds * (1.0 + 1e-9);
        schedule.total_time_seconds = bounds.tm;
        bounds.gamma =
            ctx_.estimator.estimate(ctx_.graph, candidate, ctx_.arch, ctx_.levels, schedule)
                .total;
        return bounds;
    }

    /// The row tier's bound on every move of `t` off `base`: the base's
    /// prefix latency before t's earliest predecessor, plus (B-1) times
    /// the largest base busy time among the cores no move of t can
    /// unload (all but t's core and its in-neighbours' cores) over B.
    double row_bound(const Mapping& base, TaskId t) const {
        std::size_t suffix = pos_[t];
        std::vector<bool> may_drop(base.core_count(), false);
        may_drop[base.core_of(t)] = true;
        for (const std::size_t idx : ctx_.graph.in_edge_indices(t)) {
            const TaskId src = ctx_.graph.edge(idx).src;
            suffix = std::min(suffix, pos_[src]);
            may_drop[base.core_of(src)] = true;
        }
        double prefix = 0.0;
        for (std::size_t p = 0; p < suffix; ++p)
            prefix = std::max(prefix, base_.entries[order_[p]].finish_seconds);
        double busy = 0.0;
        for (CoreId c = 0; c < base.core_count(); ++c)
            if (!may_drop[c]) busy = std::max(busy, base_.core_busy_seconds[c]);
        const double batches = static_cast<double>(ctx_.graph.batch_count());
        return prefix + (batches - 1.0) * (busy / batches);
    }

    bool within_deadline(double tm) const { return tm <= ctx_.deadline_seconds * (1.0 + 1e-9); }

private:
    const EvaluationContext& ctx_;
    std::vector<TaskId> order_;
    std::vector<std::size_t> pos_;
    Schedule base_;
};

/// The sweep's skip rule stated over the bounds: past the deadline only
/// T_M can improve an infeasible reference; within it the candidate may
/// be feasible, which beats any infeasible reference, and against two
/// feasible ones only a lower Gamma counts.
bool bound_rule_skips(const LowerBounds& lb, const DesignMetrics& walk,
                      const DesignMetrics& result) {
    if (!lb.tm_within_deadline)
        return (walk.feasible || lb.tm >= walk.tm_seconds) &&
               (result.feasible || lb.tm >= result.tm_seconds);
    if (!walk.feasible || !result.feasible) return false;
    return lb.gamma >= walk.gamma && lb.gamma >= result.gamma;
}

void expect_bit_identical(const DesignMetrics& got, const DesignMetrics& exact,
                          const std::string& at) {
    EXPECT_EQ(got.tm_seconds, exact.tm_seconds) << at;
    EXPECT_EQ(got.latency_seconds, exact.latency_seconds) << at;
    EXPECT_EQ(got.register_bits, exact.register_bits) << at;
    EXPECT_EQ(got.gamma, exact.gamma) << at;
    EXPECT_EQ(got.power_mw, exact.power_mw) << at;
    EXPECT_EQ(got.feasible, exact.feasible) << at;
}

struct Tally {
    std::uint64_t checked = 0;
    std::uint64_t skips = 0;
    std::uint64_t tm_tier_skips = 0;
    std::uint64_t gamma_tier_skips = 0;
};

/// Every single-task move off `base`, bounded against one (walk, result)
/// reference shape pair. A fresh context per pair keeps each candidate
/// off the memo, so every call reaches the bound.
void check_base(const EvaluationContext& ctx, const Mapping& base, const RefShape& walk,
                const RefShape& result, Tally& tally, const std::string& where) {
    EvalContext eval(ctx);
    (void)eval.rebase(base);
    BoundOracle oracle(ctx);
    oracle.rebase(base);
    for (TaskId t = 0; t < base.task_count(); ++t) {
        for (CoreId core = 0; core < base.core_count(); ++core) {
            if (core == base.core_of(t)) continue;
            Mapping moved = base;
            moved.assign(t, core);
            const DesignMetrics exact = evaluate_design(ctx, moved);
            const DesignMetrics w = make_reference(walk, exact);
            const DesignMetrics r = make_reference(result, exact);
            const std::uint64_t skips_before = eval.stats().bound_skips;
            const std::uint64_t tm_skips_before = eval.stats().tm_skips;
            const std::optional<DesignMetrics> got =
                eval.evaluate_bounded(NeighborOp::move(t, core), w, r);
            ++tally.checked;
            const std::string at = where + " task=" + std::to_string(t) +
                                   " core=" + std::to_string(core);
            const LowerBounds lb = oracle.of(moved, {t});
            if (!got) {
                ++tally.skips;
                // The tier that decided: T_M past the deadline, else Gamma,
                // which runs only against two feasible references.
                if (!lb.tm_within_deadline) {
                    ++tally.tm_tier_skips;
                    EXPECT_EQ(eval.stats().tm_skips, tm_skips_before + 1) << at;
                } else {
                    ++tally.gamma_tier_skips;
                    EXPECT_EQ(eval.stats().tm_skips, tm_skips_before) << at;
                    EXPECT_TRUE(w.feasible && r.feasible) << at;
                }
                EXPECT_EQ(eval.stats().bound_skips, skips_before + 1) << at;
                EXPECT_FALSE(improves(exact, w)) << "skipped a walk improvement at " << at;
                EXPECT_FALSE(improves(exact, r)) << "skipped a result improvement at " << at;
                continue;
            }
            EXPECT_EQ(eval.stats().bound_skips, skips_before) << at;
            EXPECT_EQ(eval.stats().tm_skips, tm_skips_before) << at;
            EXPECT_EQ(got->tm_seconds, exact.tm_seconds) << at;
            EXPECT_EQ(got->latency_seconds, exact.latency_seconds) << at;
            EXPECT_EQ(got->register_bits, exact.register_bits) << at;
            EXPECT_EQ(got->gamma, exact.gamma) << at;
            EXPECT_EQ(got->power_mw, exact.power_mw) << at;
            EXPECT_EQ(got->feasible, exact.feasible) << at;
        }
    }
}

TEST(EvalContextBound, SkipsOnlyCandidatesThatImproveNeitherReference) {
    for (const ExposurePolicy policy : k_policies) {
        Tally tally;
        for (const std::uint64_t batches : k_batch_counts) {
            for (int s = 0; s < k_seeds_per_shape; ++s) {
                const auto seed = static_cast<std::uint64_t>(s) * 131 + batches;
                const Problem problem = random_problem(seed, batches, policy);
                Rng rng(seed);
                const EvaluationContext ctx =
                    problem.evaluation_context(random_levels(problem, rng));
                const std::size_t tasks = problem.graph().task_count();
                const std::size_t cores = problem.architecture().core_count();
                for (int b = 0; b < k_bases; ++b) {
                    const Mapping base = b == 0 ? round_robin_mapping(problem.graph(), cores)
                                                : random_mapping(tasks, cores, rng);
                    for (const RefShape& walk : ref_shapes())
                        for (const RefShape& result : ref_shapes())
                            check_base(ctx, base, walk, result, tally,
                                       "seed=" + std::to_string(seed) +
                                           " batches=" + std::to_string(batches) +
                                           " base=" + std::to_string(b));
                }
            }
        }
        // Not vacuous: the bound fires under this exposure policy.
        EXPECT_GT(tally.skips, 0u) << "policy " << static_cast<int>(policy);
        EXPECT_LT(tally.skips, tally.checked) << "policy " << static_cast<int>(policy);
        EXPECT_GT(tally.tm_tier_skips, 0u) << "policy " << static_cast<int>(policy);
        // Under busy_only Gamma_lb is the exact Gamma, so the tie cutoff
        // reaches the Gamma tier; full_duration's Gamma_lb sits below
        // these cutoffs (the interleaving test places them on it).
        if (policy == ExposurePolicy::busy_only) {
            EXPECT_GT(tally.gamma_tier_skips, 0u);
        }
    }
}

TEST(EvalContextBound, TmBoundIsExactWhenTheLatencyLiesInThePrefix) {
    // Two independent tasks, the long one placed first: moving the short
    // one leaves the latency in the prefix, so with one batch T_M equals
    // its bound. The candidate is skipped exactly when it improves
    // neither reference: at ties and below, never one ulp above.
    RegisterFile regs;
    const RegisterId r0 = regs.add_register("r0", 64);
    const RegisterId r1 = regs.add_register("r1", 64);
    TaskGraph graph("prefix_latency", std::move(regs));
    const TaskId long_task = graph.add_task("long", 10'000'000, std::array{r0});
    const TaskId short_task = graph.add_task("short", 1'000'000, std::array{r1});
    graph.validate();
    const MpsocArchitecture arch(2, VoltageScalingTable::arm7_three_level());
    // Every design misses this deadline.
    const EvaluationContext ctx{graph, arch, {1, 1}, SeuEstimator{SerModel{}}, 1e-6};
    Mapping base(2, 2);
    base.assign(long_task, 0);
    base.assign(short_task, 0);
    Mapping moved = base;
    moved.assign(short_task, 1);
    const DesignMetrics exact = evaluate_design(ctx, moved);
    ASSERT_FALSE(exact.feasible);
    for (const int walk_ulps : {-1, 0, 1}) {
        for (const int result_ulps : {-1, 0, 1}) {
            EvalContext eval(ctx);
            (void)eval.rebase(base);
            const DesignMetrics walk = make_reference({false, walk_ulps}, exact);
            const DesignMetrics result = make_reference({false, result_ulps}, exact);
            const std::optional<DesignMetrics> got =
                eval.evaluate_bounded(NeighborOp::move(short_task, 1), walk, result);
            EXPECT_EQ(got.has_value(), improves(exact, walk) || improves(exact, result))
                << "walk ulps " << walk_ulps << ", result ulps " << result_ulps;
            // Every design misses the deadline: each skip is a T_M-tier one.
            EXPECT_EQ(eval.stats().tm_skips, eval.stats().bound_skips);
        }
    }
}

TEST(EvalContextBound, NaiveReferenceNeverSkips) {
    for (const ExposurePolicy policy : k_policies) {
        const Problem problem = random_problem(7, 16, policy);
        const std::size_t cores = problem.architecture().core_count();
        const EvaluationContext ctx = problem.evaluation_context(ScalingVector(cores, 1));
        EvalOptions options;
        options.naive_reference = true;
        EvalContext naive(ctx, options);
        EvalContext fast(ctx);
        const Mapping base = round_robin_mapping(problem.graph(), cores);
        (void)naive.rebase(base);
        (void)fast.rebase(base);
        // Cutoffs no candidate can beat: any candidate is skippable by
        // the bound, so the fast path must skip and the naive path not.
        DesignMetrics unbeatable;
        unbeatable.feasible = true;
        unbeatable.gamma = 0.0;
        for (TaskId t = 0; t < base.task_count(); ++t) {
            for (CoreId core = 0; core < cores; ++core) {
                if (core == base.core_of(t)) continue;
                Mapping moved = base;
                moved.assign(t, core);
                const std::optional<DesignMetrics> got =
                    naive.evaluate_bounded(NeighborOp::move(t, core), unbeatable, unbeatable);
                ASSERT_TRUE(got.has_value()) << "task " << t << " core " << core;
                EXPECT_EQ(got->gamma, evaluate_design(ctx, moved).gamma);
                EXPECT_FALSE(
                    fast.evaluate_bounded(NeighborOp::move(t, core), unbeatable, unbeatable));
            }
        }
        EXPECT_EQ(naive.stats().bound_skips, 0u);
        EXPECT_EQ(naive.stats().tm_skips, 0u);
        EXPECT_GT(fast.stats().bound_skips, 0u);
    }
}

/// References for the row tier: feasible (T_M never rules a row out
/// against one) or infeasible with its T_M cutoff one ulp below, on or
/// one ulp above the row bound.
std::vector<DesignMetrics> row_references(double row_lb) {
    std::vector<DesignMetrics> out(1);
    out.front().feasible = true;
    for (const int ulps : {-1, 0, 1}) {
        DesignMetrics reference;
        reference.tm_seconds = nudge(row_lb, ulps);
        out.push_back(reference);
    }
    return out;
}

TEST(EvalContextRowBound, BoundsEveryMoveAndRulesOutOnlyRowsTheCandidateTierSkips) {
    for (const ExposurePolicy policy : k_policies) {
        std::uint64_t rows_ruled_out = 0;
        std::uint64_t rows_kept = 0;
        for (const std::uint64_t batches : k_batch_counts) {
            for (int s = 0; s < k_seeds_per_shape; ++s) {
                const auto seed = static_cast<std::uint64_t>(s) * 131 + batches;
                const Problem problem = random_problem(seed, batches, policy);
                Rng rng(seed ^ 0x20a1ULL);
                const EvaluationContext ctx =
                    problem.evaluation_context(random_levels(problem, rng));
                const std::size_t tasks = problem.graph().task_count();
                const std::size_t cores = problem.architecture().core_count();
                for (int b = 0; b < k_bases; ++b) {
                    const Mapping base = b == 0 ? round_robin_mapping(problem.graph(), cores)
                                                : random_mapping(tasks, cores, rng);
                    EvalContext eval(ctx);
                    (void)eval.rebase(base);
                    BoundOracle oracle(ctx);
                    oracle.rebase(base);
                    for (TaskId t = 0; t < tasks; ++t) {
                        const std::string at = "seed=" + std::to_string(seed) +
                                               " batches=" + std::to_string(batches) +
                                               " base=" + std::to_string(b) +
                                               " task=" + std::to_string(t);
                        const double row_lb = oracle.row_bound(base, t);
                        std::vector<std::pair<NeighborOp, DesignMetrics>> moves;
                        for (CoreId core = 0; core < cores; ++core) {
                            if (core == base.core_of(t)) continue;
                            Mapping moved = base;
                            moved.assign(t, core);
                            const DesignMetrics exact = evaluate_design(ctx, moved);
                            const double tm_lb = oracle.of(moved, {t}).tm;
                            EXPECT_LE(row_lb, tm_lb) << at << " core=" << core;
                            EXPECT_LE(tm_lb, exact.tm_seconds) << at << " core=" << core;
                            moves.emplace_back(NeighborOp::move(t, core), exact);
                        }
                        for (const DesignMetrics& walk : row_references(row_lb)) {
                            for (const DesignMetrics& result : row_references(row_lb)) {
                                const bool expected =
                                    !oracle.within_deadline(row_lb) &&
                                    (walk.feasible || row_lb >= walk.tm_seconds) &&
                                    (result.feasible || row_lb >= result.tm_seconds);
                                const EvalContext::Stats before = eval.stats();
                                const bool ruled_out = eval.skip_moves_of(t, walk, result);
                                EXPECT_EQ(ruled_out, expected) << at;
                                const std::uint64_t counted = ruled_out ? cores - 1 : 0;
                                EXPECT_EQ(eval.stats().row_skips - before.row_skips, counted);
                                EXPECT_EQ(eval.stats().tm_skips - before.tm_skips, counted);
                                EXPECT_EQ(eval.stats().bound_skips - before.bound_skips,
                                          counted);
                                ++(ruled_out ? rows_ruled_out : rows_kept);
                                if (!ruled_out) continue;
                                // Every move of a ruled-out row is one the
                                // candidate tiers skip (no move was replayed
                                // into the memo) and improves neither
                                // reference.
                                for (const auto& [op, exact] : moves) {
                                    EXPECT_FALSE(eval.evaluate_bounded(op, walk, result)) << at;
                                    EXPECT_FALSE(improves(exact, walk)) << at;
                                    EXPECT_FALSE(improves(exact, result)) << at;
                                }
                            }
                        }
                    }
                }
            }
        }
        // Not vacuous: rows are ruled out and kept under this policy.
        EXPECT_GT(rows_ruled_out, 0u) << "policy " << static_cast<int>(policy);
        EXPECT_GT(rows_kept, 0u) << "policy " << static_cast<int>(policy);
    }
}

TEST(EvalContextRowBound, IsAttainedWhenTheBottleneckCoreStaysUntouched) {
    // The long task alone on core 0 is placed first and stays the
    // bottleneck: moving the short task from core 1 to the idle core 2
    // leaves both the latency (in the prefix) and the II (core 0's, which
    // no move of the short task unloads) at the row bound. A row is ruled
    // out at a tie or below and kept one ulp above, so a bound any
    // tighter than the one stated would drop this improving move.
    RegisterFile regs;
    const RegisterId r0 = regs.add_register("r0", 64);
    const RegisterId r1 = regs.add_register("r1", 64);
    TaskGraph graph("row_bound_attained", std::move(regs));
    const TaskId long_task = graph.add_task("long", 10'000'000, std::array{r0});
    const TaskId short_task = graph.add_task("short", 1'000'000, std::array{r1});
    graph.set_batch_count(16);
    graph.validate();
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
    // Every design misses this deadline.
    const EvaluationContext ctx{graph, arch, {1, 1, 1}, SeuEstimator{SerModel{}}, 1e-6};
    Mapping base(2, 3);
    base.assign(long_task, 0);
    base.assign(short_task, 1);
    Mapping moved = base;
    moved.assign(short_task, 2);
    const DesignMetrics exact = evaluate_design(ctx, moved);
    ASSERT_FALSE(exact.feasible);
    BoundOracle oracle(ctx);
    oracle.rebase(base);
    ASSERT_EQ(oracle.row_bound(base, short_task), exact.tm_seconds);
    for (const int ulps : {-1, 0, 1}) {
        EvalContext eval(ctx);
        (void)eval.rebase(base);
        DesignMetrics reference;
        reference.tm_seconds = nudge(exact.tm_seconds, ulps);
        EXPECT_EQ(eval.skip_moves_of(short_task, reference, reference), ulps <= 0)
            << "ulps " << ulps;
        EXPECT_EQ(eval.evaluate_bounded(NeighborOp::move(short_task, 2), reference, reference)
                      .has_value(),
                  improves(exact, reference))
            << "ulps " << ulps;
    }
}

/// A reference for the interleaving test: feasible with a Gamma cutoff
/// or infeasible with a T_M cutoff, placed at the candidate's lower
/// bound (most often) or at its exact value, one ulp below, on it or
/// one ulp above. An infeasible reference keeps Gamma 0.
DesignMetrics random_reference(Rng& rng, const LowerBounds& lb, const DesignMetrics& exact) {
    DesignMetrics reference;
    reference.feasible = rng.uniform() < 0.5;
    const bool at_bound = rng.uniform() < 0.75;
    const int ulps = static_cast<int>(rng.uniform_int(-1, 1));
    if (reference.feasible)
        reference.gamma = nudge(at_bound ? lb.gamma : exact.gamma, ulps);
    else
        reference.tm_seconds = nudge(at_bound ? lb.tm : exact.tm_seconds, ulps);
    return reference;
}

TEST(EvalContextBound, SkippedCandidatesLeaveNoStagedState) {
    // One context per problem, memo on, driven through an interleaved
    // stream of T_M-skipped, Gamma-skipped and replayed candidates —
    // moves and swaps, bounded and unbounded, with rebases in between.
    // A skip leaves the tiers after it unrun, so every later call must
    // restage what it reads: each decision must be the bound's over
    // the recomputed lower bounds, and every result bit-identical to
    // evaluate_design() on the materialized mapping.
    constexpr int k_steps = 400;
    for (const ExposurePolicy policy : k_policies) {
        Tally tally;
        std::uint64_t replays = 0;
        for (const std::uint64_t batches : k_batch_counts) {
            for (int s = 0; s < 4; ++s) {
                const auto seed = static_cast<std::uint64_t>(s) * 977 + batches;
                const Problem problem = random_problem(seed, batches, policy);
                Rng rng(seed ^ 0x5eedULL);
                const EvaluationContext ctx =
                    problem.evaluation_context(random_levels(problem, rng));
                const std::size_t tasks = problem.graph().task_count();
                const std::size_t cores = problem.architecture().core_count();
                EvalContext eval(ctx);
                BoundOracle oracle(ctx);
                Mapping base = random_mapping(tasks, cores, rng);
                auto rebase = [&](const Mapping& mapping) {
                    base = mapping;
                    (void)eval.rebase(base);
                    oracle.rebase(base);
                };
                rebase(base);
                for (int step = 0; step < k_steps; ++step) {
                    if (step > 0 && step % 40 == 0) rebase(random_mapping(tasks, cores, rng));
                    Mapping candidate = base;
                    const NeighborOp op = random_neighbor_op(candidate, rng, 0.5, false);
                    ASSERT_FALSE(op.none());
                    const DesignMetrics exact = evaluate_design(ctx, candidate);
                    const std::string at = "seed=" + std::to_string(seed) +
                                           " batches=" + std::to_string(batches) +
                                           " step=" + std::to_string(step);
                    if (rng.uniform() < 0.2) {
                        expect_bit_identical(eval.evaluate_neighbor(op), exact, at);
                        continue;
                    }
                    const LowerBounds lb = oracle.of(candidate, {op.a, op.b});
                    const DesignMetrics walk = random_reference(rng, lb, exact);
                    const DesignMetrics result = random_reference(rng, lb, exact);
                    const EvalContext::Stats before = eval.stats();
                    const std::optional<DesignMetrics> got =
                        eval.evaluate_bounded(op, walk, result);
                    const EvalContext::Stats& after = eval.stats();
                    ++tally.checked;
                    if (after.memo_hits != before.memo_hits) {
                        ASSERT_TRUE(got.has_value()) << at;
                        expect_bit_identical(*got, exact, at);
                        continue;
                    }
                    const bool skip = bound_rule_skips(lb, walk, result);
                    const bool tm_tier = skip && !lb.tm_within_deadline;
                    EXPECT_EQ(got.has_value(), !skip) << at;
                    EXPECT_EQ(after.bound_skips - before.bound_skips, skip ? 1u : 0u) << at;
                    EXPECT_EQ(after.tm_skips - before.tm_skips, tm_tier ? 1u : 0u) << at;
                    if (skip) {
                        ++tally.skips;
                        ++(tm_tier ? tally.tm_tier_skips : tally.gamma_tier_skips);
                    }
                    if (got) {
                        ++replays;
                        expect_bit_identical(*got, exact, at);
                        if (rng.uniform() < 0.1) rebase(candidate); // an accepted step
                    }
                }
            }
        }
        // Not vacuous: all three outcomes interleave under this policy.
        EXPECT_GT(tally.tm_tier_skips, 0u) << "policy " << static_cast<int>(policy);
        EXPECT_GT(tally.gamma_tier_skips, 0u) << "policy " << static_cast<int>(policy);
        EXPECT_GT(replays, 0u) << "policy " << static_cast<int>(policy);
    }
}

} // namespace
} // namespace seamap
