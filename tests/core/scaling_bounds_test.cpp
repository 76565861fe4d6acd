// Soundness harness for the branch-and-bound lower bounds
// (core/scaling_bounds.h): on instances small enough to enumerate the
// COMPLETE mapping space, no bound may ever exceed what some feasible
// design actually achieves — the case staircase's corner must sit at
// or below the exhaustive per-scaling optimum in each objective, and
// every feasible design must be pointwise >= the bound pair of some
// powered-core case. These are the invariants the explorer's prune
// soundness (pruned best/pareto_front bit-identical to exhaustive)
// rests on.
#include "core/scaling_bounds.h"

#include "reliability/design_eval.h"
#include "sched/list_scheduler.h"
#include "support/scaling_walker.h"
#include "taskgraph/fig8.h"
#include "tgff/random_graph.h"
#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <vector>

namespace seamap {
namespace {

/// Every complete mapping of `graph` onto `cores` cores (cores^tasks —
/// keep the instances tiny).
std::vector<Mapping> all_mappings(const TaskGraph& graph, std::size_t cores) {
    std::vector<Mapping> mappings;
    Mapping current(graph.task_count(), cores);
    std::vector<std::size_t> digits(graph.task_count(), 0);
    for (;;) {
        for (TaskId t = 0; t < graph.task_count(); ++t)
            current.assign(t, static_cast<CoreId>(digits[t]));
        mappings.push_back(current);
        std::size_t d = 0;
        while (d < digits.size() && digits[d] == cores - 1) digits[d++] = 0;
        if (d == digits.size()) break;
        ++digits[d];
    }
    return mappings;
}

/// Pointwise minimum of a case staircase (power ascending, Gamma
/// descending): the first power and the last Gamma; zero when empty.
ScalingBounds staircase_corner(const std::vector<ScalingBounds>& staircase) {
    if (staircase.empty()) return {};
    return {staircase.front().power_mw_lb, staircase.back().gamma_lb};
}

struct ExhaustiveCheck {
    std::size_t scalings_with_feasible = 0;
    std::size_t feasible_designs = 0;
};

/// Core of the harness: for every scaling combination, evaluate every
/// mapping and require (a) the scalar corner never beats the true
/// optima and (b) each feasible design dominates some case pair.
ExhaustiveCheck check_bounds_sound(const TaskGraph& graph, const MpsocArchitecture& arch,
                                   double deadline_seconds, const SerModel& ser,
                                   ExposurePolicy policy) {
    const ScalingBoundsModel model(graph, arch, deadline_seconds, ser, policy);
    const std::vector<Mapping> mappings = all_mappings(graph, arch.core_count());
    ExhaustiveCheck counts;

    ScalingEnumerator enumerator(arch.core_count(), arch.scaling_table().level_count());
    while (auto levels = enumerator.next()) {
        const std::vector<ScalingBounds> cases = model.case_bounds_for(*levels);
        const ScalingBounds corner = staircase_corner(cases);
        const EvaluationContext ctx{graph, arch, *levels, SeuEstimator(ser, policy),
                                    deadline_seconds};
        double best_power = std::numeric_limits<double>::infinity();
        double best_gamma = std::numeric_limits<double>::infinity();
        for (const Mapping& mapping : mappings) {
            const DesignMetrics metrics = evaluate_design(ctx, mapping);
            if (!metrics.feasible) continue;
            ++counts.feasible_designs;
            best_power = std::min(best_power, metrics.power_mw);
            best_gamma = std::min(best_gamma, metrics.gamma);
            // (b): the case of the powered-core set this design uses
            // must admit it. We do not reconstruct the powered set —
            // existence of ANY pointwise-dominated case is the
            // property the explorer's prune test relies on.
            bool admitted = false;
            for (const ScalingBounds& bounds : cases)
                if (bounds.power_mw_lb <= metrics.power_mw &&
                    bounds.gamma_lb <= metrics.gamma) {
                    admitted = true;
                    break;
                }
            EXPECT_TRUE(admitted)
                << "design (P=" << metrics.power_mw << ", G=" << metrics.gamma
                << ") beats every case bound pair";
        }
        if (!std::isinf(best_power)) {
            ++counts.scalings_with_feasible;
            EXPECT_LE(corner.power_mw_lb, best_power)
                << "power bound above the exhaustive optimum";
            EXPECT_LE(corner.gamma_lb, best_gamma)
                << "gamma bound above the exhaustive optimum";
        }
    }
    return counts;
}

TEST(ScalingBounds, SoundOnFig8TwoCores) {
    const TaskGraph graph = fig8_example_graph();
    const MpsocArchitecture arch(2, VoltageScalingTable::arm7_three_level());
    const double deadline = 1.4 * tm_lower_bound_seconds(graph, arch, {1, 1});
    const ExhaustiveCheck counts = check_bounds_sound(graph, arch, deadline, SerModel{},
                                                      ExposurePolicy::full_duration);
    EXPECT_GT(counts.scalings_with_feasible, 0u);
    EXPECT_GT(counts.feasible_designs, 0u);
}

TEST(ScalingBounds, SoundOnFig8BusyOnlyExposure) {
    const TaskGraph graph = fig8_example_graph();
    const MpsocArchitecture arch(2, VoltageScalingTable::arm7_three_level());
    const double deadline = 1.6 * tm_lower_bound_seconds(graph, arch, {1, 1});
    const ExhaustiveCheck counts = check_bounds_sound(graph, arch, deadline, SerModel{},
                                                      ExposurePolicy::busy_only);
    EXPECT_GT(counts.scalings_with_feasible, 0u);
}

TEST(ScalingBounds, SoundOnSmallTgffThreeCores) {
    TgffParams params;
    params.task_count = 7;
    params.batch_count = 1;
    const TaskGraph graph = generate_tgff_graph(params, 11);
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
    const double deadline = 1.5 * tm_lower_bound_seconds(graph, arch, {1, 1, 1});
    const ExhaustiveCheck counts = check_bounds_sound(graph, arch, deadline, SerModel{},
                                                      ExposurePolicy::full_duration);
    EXPECT_GT(counts.scalings_with_feasible, 0u);
}

TEST(ScalingBounds, SoundOnPipelinedBatchesWithFourLevels) {
    // Batched graph exercising the pipelined capacity refinement
    // (T_M = L + (B-1)*II) and a four-level ladder, under a steep SER
    // law so the tier telescoping carries real weight.
    TgffParams params;
    params.task_count = 6;
    params.batch_count = 16;
    const TaskGraph graph = generate_tgff_graph(params, 3);
    const MpsocArchitecture arch(2, VoltageScalingTable::arm7_four_level());
    SerParams ser_params;
    ser_params.voltage_exponent_k = 4.0;
    const double deadline = 2.5 * tm_lower_bound_seconds(graph, arch, {1, 1});
    const ExhaustiveCheck counts = check_bounds_sound(graph, arch, deadline,
                                                      SerModel{ser_params},
                                                      ExposurePolicy::full_duration);
    EXPECT_GT(counts.scalings_with_feasible, 0u);
}

TEST(ScalingBounds, InfeasibleDeadlineKeepsBoundsHarmless) {
    // With a deadline nothing can meet, whatever the bounds say must
    // never matter; they still must be finite and non-negative.
    const TaskGraph graph = fig8_example_graph();
    const MpsocArchitecture arch(2, VoltageScalingTable::arm7_three_level());
    const ScalingBoundsModel model(graph, arch, 1e-9, SerModel{},
                                   ExposurePolicy::full_duration);
    const ScalingBounds bounds = staircase_corner(model.case_bounds_for({1, 1}));
    EXPECT_GE(bounds.power_mw_lb, 0.0);
    EXPECT_GE(bounds.gamma_lb, 0.0);
    EXPECT_TRUE(std::isfinite(bounds.power_mw_lb));
    EXPECT_TRUE(std::isfinite(bounds.gamma_lb));
}

TEST(ScalingBounds, CornerIsPointwiseMinOverCases) {
    const TaskGraph graph = fig8_example_graph();
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
    const double deadline = 1.5 * tm_lower_bound_seconds(graph, arch, {1, 1, 1});
    const ScalingBoundsModel model(graph, arch, deadline, SerModel{},
                                   ExposurePolicy::full_duration);
    ScalingEnumerator enumerator(3, 3);
    while (auto levels = enumerator.next()) {
        const auto cases = model.case_bounds_for(*levels);
        const ScalingBounds corner = staircase_corner(cases);
        for (const ScalingBounds& bounds : cases) {
            EXPECT_LE(corner.power_mw_lb, bounds.power_mw_lb);
            EXPECT_LE(corner.gamma_lb, bounds.gamma_lb);
        }
    }
}

/// Counts the combinations whose case list is non-empty and requires
/// every list to be a staircase: power strictly ascending, Gamma
/// strictly descending (no case weakly dominates another).
std::size_t check_staircases(const TaskGraph& graph, const MpsocArchitecture& arch,
                             double deadline_seconds, const SerModel& ser,
                             ExposurePolicy policy) {
    const ScalingBoundsModel model(graph, arch, deadline_seconds, ser, policy);
    std::size_t non_empty = 0;
    ScalingEnumerator enumerator(arch.core_count(), arch.scaling_table().level_count());
    while (auto levels = enumerator.next()) {
        const std::vector<ScalingBounds> cases = model.case_bounds_for(*levels);
        if (!cases.empty()) ++non_empty;
        for (std::size_t i = 1; i < cases.size(); ++i) {
            EXPECT_LT(cases[i - 1].power_mw_lb, cases[i].power_mw_lb);
            EXPECT_GT(cases[i - 1].gamma_lb, cases[i].gamma_lb);
        }
    }
    return non_empty;
}

TEST(ScalingBounds, CaseListIsAnUndominatedStaircase) {
    // The instances of the soundness tests above.
    const TaskGraph fig8 = fig8_example_graph();
    const MpsocArchitecture two_cores(2, VoltageScalingTable::arm7_three_level());
    const double fig8_deadline = 1.4 * tm_lower_bound_seconds(fig8, two_cores, {1, 1});
    EXPECT_GT(check_staircases(fig8, two_cores, fig8_deadline, SerModel{},
                               ExposurePolicy::full_duration),
              0u);
    EXPECT_GT(check_staircases(fig8, two_cores, fig8_deadline, SerModel{},
                               ExposurePolicy::busy_only),
              0u);

    TgffParams tgff_params;
    tgff_params.task_count = 7;
    tgff_params.batch_count = 1;
    const TaskGraph tgff = generate_tgff_graph(tgff_params, 11);
    const MpsocArchitecture three_cores(3, VoltageScalingTable::arm7_three_level());
    EXPECT_GT(check_staircases(tgff, three_cores,
                               1.5 * tm_lower_bound_seconds(tgff, three_cores, {1, 1, 1}),
                               SerModel{}, ExposurePolicy::full_duration),
              0u);

    TgffParams pipelined_params;
    pipelined_params.task_count = 6;
    pipelined_params.batch_count = 16;
    const TaskGraph pipelined = generate_tgff_graph(pipelined_params, 3);
    const MpsocArchitecture four_levels(2, VoltageScalingTable::arm7_four_level());
    SerParams ser_params;
    ser_params.voltage_exponent_k = 4.0;
    EXPECT_GT(check_staircases(pipelined, four_levels,
                               2.5 * tm_lower_bound_seconds(pipelined, four_levels, {1, 1}),
                               SerModel{ser_params}, ExposurePolicy::full_duration),
              0u);
}

TEST(DominanceFront, MatchesBruteForceOracle) {
    // Seeded random (power, gamma) pairs on a small grid, so equal
    // powers and duplicates occur. After every insert the staircase
    // must be strictly monotone, and dominates() must agree with a
    // scan of every point inserted so far. Checking against the
    // growing set also shows that dominance, once it holds, stays true:
    // pop-time disposal and the worker prune rely on that.
    constexpr std::int64_t k_grid = 6;
    std::size_t dominated_probes = 0;
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        Rng rng(seed);
        DominanceFront front;
        std::vector<ScalingBounds> inserted;
        for (int step = 0; step < 30; ++step) {
            const ScalingBounds point{static_cast<double>(rng.uniform_int(0, k_grid)),
                                      static_cast<double>(rng.uniform_int(0, k_grid))};
            front.insert(point.power_mw_lb, point.gamma_lb);
            inserted.push_back(point);

            const std::vector<ScalingBounds> stairs = DominanceFront(front).points();
            ASSERT_FALSE(stairs.empty());
            for (std::size_t k = 1; k < stairs.size(); ++k) {
                ASSERT_LT(stairs[k - 1].power_mw_lb, stairs[k].power_mw_lb)
                    << "seed " << seed << " step " << step;
                ASSERT_GT(stairs[k - 1].gamma_lb, stairs[k].gamma_lb)
                    << "seed " << seed << " step " << step;
            }
            // Probes on and between the grid lines (steps of 0.5), so
            // ties in either objective are exercised.
            for (std::int64_t p = -1; p <= 2 * k_grid + 1; ++p) {
                for (std::int64_t g = -1; g <= 2 * k_grid + 1; ++g) {
                    const ScalingBounds probe{0.5 * static_cast<double>(p),
                                              0.5 * static_cast<double>(g)};
                    const bool expected = std::any_of(
                        inserted.begin(), inserted.end(), [&](const ScalingBounds& q) {
                            return q.power_mw_lb < probe.power_mw_lb &&
                                   q.gamma_lb < probe.gamma_lb;
                        });
                    ASSERT_EQ(front.dominates(probe), expected)
                        << "seed " << seed << " step " << step << " probe ("
                        << probe.power_mw_lb << ", " << probe.gamma_lb << ")";
                    dominated_probes += expected ? 1 : 0;
                }
            }
        }
    }
    EXPECT_GT(dominated_probes, 0u);
}

} // namespace
} // namespace seamap
