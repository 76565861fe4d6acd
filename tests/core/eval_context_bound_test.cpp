// Soundness of the Fig. 7 sweep's schedule-free bound
// (EvalContext::evaluate_bounded). A skipped candidate is never
// scheduled, so the bound is only correct if a skip implies the
// candidate's exact metrics — evaluate_design(), the naive reference —
// improve neither reference under the sweep's rules. Exercised over
// small TGFF problems shaped like the differential fuzz corpus, at batch
// counts 1/16/256 and under both exposure policies, with every single-
// task move off several bases and every feasible/infeasible pairing of
// the two references, their cutoffs placed exactly at the candidate's
// T_M or Gamma (ties), one ulp above and one ulp below.
#include "seamap/seamap.h"

#include "sched/list_scheduler.h"
#include "taskgraph/register_file.h"
#include "tgff/random_graph.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
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

struct Tally {
    std::uint64_t checked = 0;
    std::uint64_t skips = 0;
};

/// Every single-task move off `base`, bounded against one (walk, result)
/// reference shape pair. A fresh context per pair keeps each candidate
/// off the memo, so every call reaches the bound.
void check_base(const EvaluationContext& ctx, const Mapping& base, const RefShape& walk,
                const RefShape& result, Tally& tally, const std::string& where) {
    EvalContext eval(ctx);
    (void)eval.rebase(base);
    for (TaskId t = 0; t < base.task_count(); ++t) {
        for (CoreId core = 0; core < base.core_count(); ++core) {
            if (core == base.core_of(t)) continue;
            Mapping moved = base;
            moved.assign(t, core);
            const DesignMetrics exact = evaluate_design(ctx, moved);
            const DesignMetrics w = make_reference(walk, exact);
            const DesignMetrics r = make_reference(result, exact);
            const std::uint64_t skips_before = eval.stats().bound_skips;
            const std::optional<DesignMetrics> got =
                eval.evaluate_bounded(NeighborOp::move(t, core), w, r);
            ++tally.checked;
            const std::string at = where + " task=" + std::to_string(t) +
                                   " core=" + std::to_string(core);
            if (!got) {
                ++tally.skips;
                EXPECT_EQ(eval.stats().bound_skips, skips_before + 1) << at;
                EXPECT_FALSE(improves(exact, w)) << "skipped a walk improvement at " << at;
                EXPECT_FALSE(improves(exact, r)) << "skipped a result improvement at " << at;
                continue;
            }
            EXPECT_EQ(eval.stats().bound_skips, skips_before) << at;
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
        EXPECT_GT(fast.stats().bound_skips, 0u);
    }
}

} // namespace
} // namespace seamap
