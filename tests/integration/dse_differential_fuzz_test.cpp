// Randomized differential harness for the explorer: every seed builds
// a small random Problem and pins the lazy bound-sorted enumeration
// against its naive references —
//   - prune on vs off: `best` / `pareto_front` byte-identical JSON,
//   - 1 vs 2 vs 8 worker threads: the ENTIRE result bit-identical
//     within each mode,
//   - SoA fast eval vs the naive_reference eval path (the strategy
//     wrapped in NaiveEvalStrategy): the entire exhaustive result
//     bit-identical,
//   - counter algebra: searched + pruned == exhaustive searched,
//     searched <= emitted <= searched + pruned.
// The failing seed is printed via SCOPED_TRACE so any report is
// immediately replayable; seeds that ever exposed a defect (or cover
// degenerate shapes randomness rarely hits) live in the pinned
// regression corpus below, replayed before the random sweep.
#include "seamap/seamap.h"

#include "sched/list_scheduler.h"
#include "support/naive_eval_strategy.h"
#include "tgff/random_graph.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace seamap {
namespace {

/// Degenerate or once-troublesome shapes, replayed first on every run.
/// Append the seed whenever a fuzz failure is fixed so it can never
/// regress silently.
constexpr std::uint64_t k_regression_seeds[] = {
    0,   // smallest everything the generator can produce
    1,   // single-batch, near-square graph
    42,  // deep ladder + tight deadline
    977, // heavy communication relative to computation
};

constexpr int k_random_seeds = 200;

std::string best_json(const DseResult& result) {
    return result.best ? to_json(*result.best).dump() : "null";
}

std::string front_json(const DseResult& result) {
    JsonValue front = JsonValue::array();
    for (const DsePoint& point : result.pareto_front) front.push_back(to_json(point));
    return front.dump();
}

void expect_point_identical(const DsePoint& a, const DsePoint& b) {
    EXPECT_EQ(a.levels, b.levels);
    EXPECT_EQ(a.mapping, b.mapping);
    EXPECT_EQ(a.metrics.tm_seconds, b.metrics.tm_seconds);
    EXPECT_EQ(a.metrics.gamma, b.metrics.gamma);
    EXPECT_EQ(a.metrics.power_mw, b.metrics.power_mw);
}

void expect_result_identical(const DseResult& a, const DseResult& b) {
    EXPECT_EQ(a.scalings_total, b.scalings_total);
    EXPECT_EQ(a.scalings_enumerated, b.scalings_enumerated);
    EXPECT_EQ(a.scalings_skipped_infeasible, b.scalings_skipped_infeasible);
    EXPECT_EQ(a.scalings_emitted, b.scalings_emitted);
    EXPECT_EQ(a.scalings_pruned, b.scalings_pruned);
    EXPECT_EQ(a.scalings_searched, b.scalings_searched);
    ASSERT_EQ(a.feasible_points.size(), b.feasible_points.size());
    for (std::size_t i = 0; i < a.feasible_points.size(); ++i)
        expect_point_identical(a.feasible_points[i], b.feasible_points[i]);
    ASSERT_EQ(a.pareto_front.size(), b.pareto_front.size());
    for (std::size_t i = 0; i < a.pareto_front.size(); ++i)
        expect_point_identical(a.pareto_front[i], b.pareto_front[i]);
    ASSERT_EQ(a.best.has_value(), b.best.has_value());
    if (a.best) expect_point_identical(*a.best, *b.best);
}

/// Seed -> small random Problem covering the generator's whole knob
/// space: graph shape, communication weight, register sharing,
/// batching, DVS ladder depth/steepness, power/SER regime, deadline
/// slack, exposure policy. Pure function of the seed.
Problem random_problem(std::uint64_t seed) {
    Rng rng(splitmix64(seed ^ 0x5eedf00dULL));
    TgffParams tgff;
    tgff.task_count = 6 + static_cast<std::size_t>(rng.uniform_int(0, 8));
    tgff.comm_cost_max = 1 + static_cast<std::uint32_t>(rng.uniform_int(0, 5));
    tgff.output_buffer_fraction = 0.25 * static_cast<double>(rng.uniform_int(0, 3));
    tgff.batch_count = std::uint64_t{1} << (4 * rng.uniform_int(0, 2)); // 1 / 16 / 256
    tgff.name = "fuzz_" + std::to_string(seed);
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
    const double deadline = rng.uniform(1.1, 2.5) *
                            tm_lower_bound_seconds(graph, arch, ScalingVector(cores, 1));
    // Drawn after every other knob, so the policy never perturbs a
    // seed's graph, architecture or deadline draws.
    const ExposurePolicy policy =
        rng.uniform_int(0, 1) == 0 ? ExposurePolicy::full_duration : ExposurePolicy::busy_only;
    return ProblemBuilder()
        .graph(std::move(graph))
        .architecture(std::move(arch))
        .deadline_seconds(deadline)
        .ser_model(SerModel{ser})
        .exposure_policy(policy)
        .build();
}

DseResult run(const Problem& problem, bool prune, std::size_t threads, bool naive,
              std::uint64_t seed) {
    ExploreOptions options;
    options.dse.prune = prune;
    options.dse.num_threads = threads;
    options.dse.search.max_iterations = 40;
    options.dse.search.seed = splitmix64(seed + 0x9e37ULL);
    return naive ? explore_naive(problem, options) : explore(problem, options);
}

/// The full differential contract for one seed.
void check_seed(std::uint64_t seed) {
    SCOPED_TRACE("fuzz seed=" + std::to_string(seed) +
                 " (replay: random_problem(" + std::to_string(seed) + "))");
    const Problem problem = random_problem(seed);

    const DseResult exhaustive = run(problem, false, 1, false, seed);
    const DseResult pruned = run(problem, true, 1, false, seed);

    // Lazy enumeration + pruning never change the paper's outputs.
    EXPECT_EQ(best_json(pruned), best_json(exhaustive));
    EXPECT_EQ(front_json(pruned), front_json(exhaustive));

    // Counter algebra of the lazy queue's disposal + worker pruning.
    EXPECT_EQ(exhaustive.scalings_pruned, 0u);
    EXPECT_EQ(exhaustive.scalings_emitted, exhaustive.scalings_searched);
    EXPECT_EQ(pruned.scalings_searched + pruned.scalings_pruned,
              exhaustive.scalings_searched);
    EXPECT_LE(pruned.scalings_searched, pruned.scalings_emitted);
    EXPECT_LE(pruned.scalings_emitted, pruned.scalings_searched + pruned.scalings_pruned);
    EXPECT_EQ(pruned.scalings_skipped_infeasible, exhaustive.scalings_skipped_infeasible);

    // Thread-count invariance is bit-exact for the whole result, in
    // both modes.
    for (const std::size_t threads : {2, 8}) {
        expect_result_identical(exhaustive, run(problem, false, threads, false, seed));
        expect_result_identical(pruned, run(problem, true, threads, false, seed));
    }

    // The SoA fast eval path and the naive reference must agree on the
    // whole exhaustive result, bit for bit.
    expect_result_identical(exhaustive, run(problem, false, 1, true, seed));
}

TEST(DseDifferentialFuzz, RegressionCorpusReplays) {
    for (const std::uint64_t seed : k_regression_seeds) check_seed(seed);
}

TEST(DseDifferentialFuzz, RandomProblemsAgreeAcrossModesThreadsAndEvalPaths) {
    for (int i = 0; i < k_random_seeds; ++i) check_seed(1000 + static_cast<std::uint64_t>(i));
}

} // namespace
} // namespace seamap
