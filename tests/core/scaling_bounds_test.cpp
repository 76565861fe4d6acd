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

#include "api/scenarios.h"
#include "core/lazy_scaling_queue.h"
#include "reliability/design_eval.h"
#include "sched/list_scheduler.h"
#include "support/scaling_walker.h"
#include "taskgraph/fig8.h"
#include "taskgraph/mpeg2.h"
#include "tgff/random_graph.h"
#include "util/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <optional>
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

/// What one drain of a problem's lazy queue computes: every gate
/// passer's case staircase, folded into an FNV-1a 64 digest over
/// (rank, staircase size, the bit patterns of each power and Gamma).
struct StaircaseDigest {
    std::uint64_t passers = 0;
    std::uint64_t entries = 0;
    std::uint64_t digest = 14695981039346656037ULL;
    std::uint64_t generated = 0;
    std::uint64_t popped = 0;

    void fold(std::uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            digest ^= (word >> (8 * byte)) & 0xffU;
            digest *= 1099511628211ULL;
        }
    }
};

StaircaseDigest drain_staircases(const TaskGraph& graph, const MpsocArchitecture& arch,
                                 double deadline_seconds, const SerModel& ser,
                                 ExposurePolicy policy) {
    const ScalingBoundsModel model(graph, arch, deadline_seconds, ser, policy);
    LazyScalingQueue queue(graph, arch, deadline_seconds, &model);
    StaircaseDigest out;
    while (std::optional<LazyScalingQueue::Slot> slot = queue.pop()) {
        if (!slot->gate_passed) continue;
        ++out.passers;
        out.entries += slot->cases.size();
        out.fold(slot->rank);
        out.fold(slot->cases.size());
        for (const ScalingBounds& bounds : slot->cases) {
            out.fold(std::bit_cast<std::uint64_t>(bounds.power_mw_lb));
            out.fold(std::bit_cast<std::uint64_t>(bounds.gamma_lb));
        }
    }
    out.generated = queue.generated();
    out.popped = queue.popped();
    return out;
}

void expect_digest(const StaircaseDigest& got, std::uint64_t passers, std::uint64_t entries,
                   std::uint64_t digest) {
    EXPECT_EQ(got.passers, passers);
    EXPECT_EQ(got.entries, entries);
    EXPECT_EQ(got.digest, digest) << std::hex << "0x" << got.digest;
}

TEST(ScalingBounds, StaircasesArePinned) {
    // Every gate passer's staircase, bit for bit, on the producer's
    // real workloads: a rewrite of case_bounds_for (enumeration order,
    // pruning of the case walk, sorting of fills and tiers) must leave
    // every digest unchanged.
    const Problem acceptance = scale_acceptance_problem();
    const StaircaseDigest full = drain_staircases(
        acceptance.graph(), acceptance.architecture(), acceptance.deadline_seconds(),
        acceptance.ser_model(), ExposurePolicy::full_duration);
    expect_digest(full, 5862, 27172, 0x977b88f0b1a2d8afULL);
    EXPECT_EQ(full.generated, 20349u);
    EXPECT_EQ(full.popped, 20349u);
    expect_digest(drain_staircases(acceptance.graph(), acceptance.architecture(),
                                   acceptance.deadline_seconds(), acceptance.ser_model(),
                                   ExposurePolicy::busy_only),
                  5862, 5896, 0xf3fd43c1aacc7ba8ULL);

    const TaskGraph fig8 = fig8_example_graph();
    const MpsocArchitecture fig8_arch(4, VoltageScalingTable::arm7_three_level());
    expect_digest(drain_staircases(fig8, fig8_arch, k_fig8_deadline_seconds, SerModel{},
                                   ExposurePolicy::full_duration),
                  10, 18, 0x15ca26323f06f36cULL);

    const TaskGraph mpeg2 = mpeg2_decoder_graph();
    const MpsocArchitecture mpeg2_arch(4, VoltageScalingTable::arm7_three_level());
    expect_digest(drain_staircases(mpeg2, mpeg2_arch, mpeg2_deadline_seconds(), SerModel{},
                                   ExposurePolicy::full_duration),
                  15, 45, 0x2ffff689472a6dc2ULL);

    TgffParams tgff_params;
    tgff_params.task_count = 40;
    tgff_params.batch_count = 16;
    const TaskGraph tgff = generate_tgff_graph(tgff_params, 5);
    const MpsocArchitecture tgff_arch(6, VoltageScalingTable::arm7_four_level());
    const double tgff_deadline =
        2.0 * tm_lower_bound_seconds(tgff, tgff_arch, ScalingVector(6, 1));
    expect_digest(drain_staircases(tgff, tgff_arch, tgff_deadline, SerModel{},
                                   ExposurePolicy::full_duration),
                  68, 146, 0x72c1973260adbd2bULL);

    // Voltages out of frequency order: energy per cycle (C Vdd^2) and
    // SER (falling with Vdd) no longer follow the level order, and the
    // equal-voltage levels 1 and 2 tie in both, so the fill and tier
    // orders fall back to capacity.
    const VoltageScalingTable shuffled(
        {{200.0, 1.0}, {150.0, 1.0}, {100.0, 1.2}, {50.0, 0.5}, {25.0, 0.8}});
    const MpsocArchitecture shuffled_arch(6, shuffled);
    const double shuffled_deadline =
        2.0 * tm_lower_bound_seconds(tgff, shuffled_arch, ScalingVector(6, 1));
    expect_digest(drain_staircases(tgff, shuffled_arch, shuffled_deadline, SerModel{},
                                   ExposurePolicy::full_duration),
                  127, 322, 0x305e763befed0038ULL);
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

TEST(DominanceFront, PointsAreInsertionOrderIndependent) {
    // case_bounds_for may insert a combination's cases in any order:
    // the final staircase is the set's undominated points, so every
    // permutation of one point set must give identical points(). Small
    // grids make exact duplicates and equal-power points common.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed);
        const std::int64_t grid = rng.uniform_int(2, 8);
        const std::int64_t count = rng.uniform_int(1, 24);
        std::vector<ScalingBounds> points;
        for (std::int64_t i = 0; i < count; ++i)
            points.push_back({static_cast<double>(rng.uniform_int(0, grid)),
                              static_cast<double>(rng.uniform_int(0, grid))});
        if (count > 1) points.push_back(points.front()); // an exact duplicate

        const auto staircase = [](const std::vector<ScalingBounds>& order) {
            DominanceFront front;
            for (const ScalingBounds& point : order)
                front.insert(point.power_mw_lb, point.gamma_lb);
            return std::move(front).points();
        };
        const std::vector<ScalingBounds> expected = staircase(points);
        ASSERT_FALSE(expected.empty());
        std::vector<ScalingBounds> order = points;
        for (int shuffle = 0; shuffle < 50; ++shuffle) {
            for (std::size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform_int(
                                            0, static_cast<std::int64_t>(i) - 1))]);
            const std::vector<ScalingBounds> got = staircase(order);
            ASSERT_EQ(got.size(), expected.size()) << "seed " << seed << " shuffle " << shuffle;
            for (std::size_t k = 0; k < got.size(); ++k) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k].power_mw_lb),
                          std::bit_cast<std::uint64_t>(expected[k].power_mw_lb));
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k].gamma_lb),
                          std::bit_cast<std::uint64_t>(expected[k].gamma_lb));
            }
        }
    }
}

} // namespace
} // namespace seamap
