// Sound per-scaling lower bounds on power and expected SEUs, the
// admissible heuristics that drive the branch-and-bound explorer
// (core/dse.cpp).
//
// Any feasible design at a scaling combination powers some non-empty
// sub-multiset S of the combination's cores (unused cores are
// power-gated and hold no live state) whose combined deadline capacity
// covers the graph's work. Every such S yields one sound (power, Gamma)
// lower-bound pair: a design that powers exactly S costs at least that
// pair, pointwise. The explorer prunes a combination only when EVERY
// case is strictly dominated by an already-evaluated design — each case
// may fall to a different incumbent (a case that gates its fast cores
// has low power but high Gamma and dies to a fast incumbent; a case
// that powers them dies to a cheap one).
//
// case_bounds_for() returns only the cases no other case of the same
// combination weakly dominates, as a DominanceFront staircase (power
// ascending, Gamma strictly descending). That loses nothing:
//  - the prune test: if case A <= case B in both objectives, every
//    incumbent that strictly beats A strictly beats B, so "every case
//    strictly dominated" has the same truth value on the staircase as
//    on the full list (and both are empty together);
//  - the pointwise-minimum corner the lazy queue keys its pops by: it
//    is the staircase's first power and last Gamma, the same doubles
//    the full list's minima are.
// The staircase is also small (4.6 of 78 cases per gate passer on the
// 16-core x 6-level acceptance scenario), which is what lets the lazy
// queue compute it once, when a combination is generated, and keep it
// on the frontier until the explorer pops it.
//
// The walk. Cores at one level are interchangeable, so a case is a
// powered count per level group. case_bounds_for() walks the counts
// depth-first over the groups in ascending level order and carries the
// rough capacity sum that admits a case (sum of n_l * f_l * D * slack^3,
// below which no design can power the case), added left to right as a
// flat pass over the case adds it; a zero count adds nothing, as adding
// +0.0 would. A subtree is cut when that sum, with every remaining group
// at its full count, is still below the work: IEEE + and * round
// monotonically, so no case below can sum to more, and none could pass
// the filter. The cases priced are thus exactly the admissible ones,
// only in another order, which the result cannot see: a DominanceFront
// ends as the set's undominated points whatever the insertion order.
// On acceptance a gate passer has 594 powered sub-multisets on average;
// the walk prices the 78 with the capacity and keeps 4.6. Pricing a
// case allocates nothing: its (price, capacity) pairs sit in fixed
// arrays, one entry per level group (at most 255, as ScalingLevel is
// 8-bit).
//
// Per-case soundness leans on the deadline-capacity argument that
// makes tight deadlines the prunable regime. With T_M <= D and
// per-core utilization <= 1, core i absorbs at most f_i * D cycles —
// and under pipelined batching strictly less: T_M = L + (B-1) * II
// exactly, per-iteration busy time is at most II, and L is at least
// the critical path on the case's fastest core, so whole-run busy is
// capped by f_i * B * (D - L_min) / (B - 1).
//
//  - Power (eq. 5 shape): P = sum_{i in S} P_a(l_i) * (idle +
//    (1-idle) u_i). Every powered core pays its idle fraction;
//    the busy part prices the graph's cycles by the fractional
//    knapsack over S's energy-per-cycle levels (a true minimum),
//    divided by the largest admissible T_M.
//
//  - Gamma (eq. 3, full_duration): Gamma = T_M * sum_{i in S} R_i *
//    lambda_i >= tm_lb(S) * rate_lb(S). The rate bound telescopes over
//    S's SER tiers: lambda(host) = lambda_min + sum over tiers j of
//    (lambda_j - lambda_{j-1}) for every tier at or below the host, so
//        sum R_i lambda_i  =  lambda_min * sum_i R_i
//                           + sum_j (lambda_j - lambda_{j-1}) * bits_j
//    with bits_j the union bits on cores of tier >= j. The first term
//    is >= lambda_min * U (U = union of every working set — each
//    register is live somewhere). For the second, capacity forces
//    cycles beyond the cheaper tiers' combined budget onto tier >= j,
//    and a register subset covering c cycles (every task carries its
//    own registers) holds at least B(c) bits, where B is the
//    fractional cheapest-bits-per-cycle cover of the graph's
//    registers; a single-whole-task floor (the smallest working set)
//    guards the relaxation when the overflow is tiny. tm_lb(S)
//    restricts the T_M lower bound to S: only powered cores do work.
//    Under busy_only exposure each task's own bits are exposed for at
//    least its execution time at S's best SEU-per-cycle rate.
//
// Bounds are multiplied by (1 - 1e-9) before being returned so that
// accumulating the same physics in a different summation order can
// never push a "bound" above the true achievable value by round-off;
// the branch-and-bound prune additionally requires *strict* dominance.
#pragma once

#include "arch/mpsoc.h"
#include "arch/scaling_enumerator.h"
#include "reliability/ser_model.h"
#include "reliability/seu_estimator.h"
#include "sched/list_scheduler.h"
#include "taskgraph/task_graph.h"
#include "util/float_compare.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

namespace seamap {

/// Lower bounds over every feasible mapping of one powered-core case.
struct ScalingBounds {
    double power_mw_lb = 0.0;
    double gamma_lb = 0.0;
};

/// A (P, Gamma) staircase: the points no other inserted point weakly
/// dominates, sorted by power ascending with strictly decreasing gamma.
/// It is both the incumbent front the branch-and-bound prunes against
/// and the shape of a combination's case list. A combination is
/// prunable only when some incumbent beats its bounds *strictly in both
/// objectives* — then every design it could contain is strictly
/// dominated and can appear in neither the front nor the pick (the
/// front filter uses <=/<, so strict-both implies removal). Insertion
/// of a weakly dominated point is a no-op, which makes dominance
/// monotone as the front grows: once a bound pair is dominated it stays
/// dominated under any later insertions.
class DominanceFront {
public:
    /// Adds (power, gamma) unless a point weakly dominates it, and
    /// drops the points it weakly dominates.
    void insert(double power, double gamma) {
        auto at = first_not_cheaper(power);
        if (at != points_.begin() && std::prev(at)->gamma_lb <= gamma)
            return; // weakly dominated by a cheaper point
        if (at != points_.end() && exactly_equal(at->power_mw_lb, power) &&
            at->gamma_lb <= gamma)
            return; // weakly dominated at equal power
        auto last = at;
        while (last != points_.end() && last->gamma_lb >= gamma) ++last;
        at = points_.erase(at, last);
        points_.insert(at, ScalingBounds{power, gamma});
    }

    /// True when some point strictly beats (power_lb, gamma_lb) in
    /// both objectives.
    bool dominates(const ScalingBounds& bounds) const {
        // The last point cheaper than power_lb carries the minimum
        // gamma among all of them.
        auto at = first_not_cheaper(bounds.power_mw_lb);
        if (at == points_.begin()) return false;
        return std::prev(at)->gamma_lb < bounds.gamma_lb;
    }

    /// The staircase, moved out of an expiring front.
    std::vector<ScalingBounds> points() && { return std::move(points_); }

private:
    std::vector<ScalingBounds>::const_iterator first_not_cheaper(double power) const {
        return std::lower_bound(
            points_.begin(), points_.end(), power,
            [](const ScalingBounds& point, double p) { return point.power_mw_lb < p; });
    }

    std::vector<ScalingBounds> points_;
};

/// Bound evaluator for one (graph, architecture, deadline, SER model)
/// problem; graph-level aggregates are computed once at construction.
class ScalingBoundsModel {
public:
    /// `arch` must outlive the model.
    ScalingBoundsModel(const TaskGraph& graph, const MpsocArchitecture& arch,
                       double deadline_seconds, const SerModel& ser, ExposurePolicy policy);

    /// The undominated bound pairs over the admissible powered-core
    /// sub-multisets (capacity covers the work), as a DominanceFront
    /// staircase: every feasible design's (P, Gamma) is pointwise >=
    /// one of them. Empty when no case has enough capacity (the T_M
    /// gate rejects such scalings anyway). The corner — any feasible
    /// design's minimum in each objective separately — is the first
    /// entry's power and the last entry's Gamma.
    std::vector<ScalingBounds> case_bounds_for(const ScalingVector& levels) const;

private:
    /// Cores of one scaling level a case powers: level index (level -
    /// 1) and count.
    struct PoweredGroup {
        std::size_t level = 0;
        std::size_t count = 0;
    };
    struct CaseWalk;

    /// Bounds of one powered-core case, groups in ascending level order.
    ScalingBounds case_bounds(std::span<const PoweredGroup> powered) const;

    /// The rough-capacity filter's term for `count` cores of one level.
    double rough_capacity(std::size_t level_index, std::size_t count) const;

    /// Depth-first over the counts of groups g.. given the rough
    /// capacity of groups before g; inserts every admissible case.
    void walk_cases(CaseWalk& walk, std::size_t g, double capacity) const;

    /// Fractional min-bits cover: smallest union width (bits) a task
    /// set covering `cycles` of work can carry. Built from registers
    /// sorted by bits-per-covered-cycle; piecewise linear, monotone.
    double min_union_bits_covering(double cycles) const;

    const MpsocArchitecture& arch_;
    double deadline_seconds_;
    ExposurePolicy policy_;

    // Graph aggregates (whole-run cycle totals, bits).
    TmBoundAggregates tm_;
    std::uint64_t union_bits_all_ = 0;   ///< |union of every task's set|
    std::uint64_t min_task_bits_ = 0;    ///< smallest single-task set
    double bits_times_cycles_ = 0.0;     ///< sum_t bits_t * exec_cycles_t
    double cycles_without_registers_ = 0.0; ///< work of zero-bit tasks
    // Registers sorted by ascending bits/covered-cycles density;
    // prefix sums drive min_union_bits_covering.
    std::vector<double> cover_cycles_prefix_;
    std::vector<double> cover_bits_prefix_;

    // Per-level tables, indexed by level - 1.
    std::vector<double> frequency_hz_;
    std::vector<double> active_power_mw_;
    std::vector<double> energy_per_cycle_mws_;
    std::vector<double> ser_per_bit_second_;
};

} // namespace seamap
