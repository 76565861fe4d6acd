#include "core/scaling_bounds.h"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <span>
#include <tuple>

// case_bounds_for runs once per gate-passing combination on the
// explorer's serial producer thread, and case_bounds once per admissible
// case of it; the marker arms seamap_lint's hot-path-alloc rule so both
// stay free of per-case allocation. The constructor is setup.
// seamap-lint: hot-path

namespace seamap {

namespace {

/// Safety margins mirroring the evaluators' own tolerances: a design
/// counts as feasible up to deadline * (1 + 1e-9)
/// (Schedule::meets_deadline) and per-core utilization may reach
/// 1 + 1e-9 (PowerModel), so capacity and utilization denominators use
/// the widened deadline. The final shave absorbs summation-order ulps.
constexpr double k_deadline_slack = 1.0 + 1e-9;
constexpr double k_bound_shave = 1.0 - 1e-9;

/// Distinct levels a combination can hold: ScalingLevel is 8-bit and
/// level 0 is not a level.
constexpr std::size_t k_max_groups = 255;

/// A case's (price, capacity) pairs, at most one per level group: the
/// power knapsack prices cycles by energy per cycle, the Gamma tier
/// sum by SER rate. case_bounds leaves its arrays uninitialized and
/// reads only the entries it has written: zeroing all 255 per case would
/// cost more than pricing the case.
struct PricedCapacity {
    double price;
    double capacity;
};
using PricedCapacities = std::array<PricedCapacity, k_max_groups>;

/// The lexicographic (price, capacity) order: any sort by it yields the
/// same sequence, so the knapsack and tier sums see the same doubles.
bool cheaper(const PricedCapacity& a, const PricedCapacity& b) {
    return std::tie(a.price, a.capacity) < std::tie(b.price, b.capacity);
}

} // namespace

// seamap-lint: push-allow(hot-path-alloc) -- graph aggregates and
// per-level tables are built once per problem
ScalingBoundsModel::ScalingBoundsModel(const TaskGraph& graph, const MpsocArchitecture& arch,
                                       double deadline_seconds, const SerModel& ser,
                                       ExposurePolicy policy)
    : arch_(arch), deadline_seconds_(deadline_seconds), policy_(policy), tm_(graph) {
    std::vector<TaskId> all_tasks(graph.task_count());
    std::iota(all_tasks.begin(), all_tasks.end(), TaskId{0});
    union_bits_all_ = graph.union_register_bits(all_tasks);
    min_task_bits_ = std::numeric_limits<std::uint64_t>::max();
    for (TaskId t = 0; t < graph.task_count(); ++t) {
        const std::uint64_t task_bits = graph.task_register_bits(t);
        const double exec = static_cast<double>(graph.task(t).exec_cycles);
        min_task_bits_ = std::min(min_task_bits_, task_bits);
        bits_times_cycles_ += static_cast<double>(task_bits) * exec;
        if (task_bits == 0) cycles_without_registers_ += exec;
    }
    if (graph.task_count() == 0) min_task_bits_ = 0;

    // Per-register coverage: register r can "explain" at most the
    // cycles of the tasks that use it, at a price of its width. The
    // fractional cheapest-price-per-cycle cover of c cycles is then a
    // true lower bound on the union bits of any task set holding c
    // cycles of work (every task is covered by its own registers).
    const RegisterFile& file = graph.register_file();
    struct Cover {
        double bits = 0.0;
        double cycles = 0.0;
    };
    std::vector<Cover> covers(file.size());
    for (std::size_t r = 0; r < covers.size(); ++r)
        covers[r].bits = static_cast<double>(file.bits(static_cast<RegisterId>(r)));
    for (TaskId t = 0; t < graph.task_count(); ++t) {
        const double exec = static_cast<double>(graph.task(t).exec_cycles);
        graph.task(t).registers.for_each([&](RegisterId r) { covers[r].cycles += exec; });
    }
    std::erase_if(covers, [](const Cover& c) { return c.cycles <= 0.0; });
    std::sort(covers.begin(), covers.end(), [](const Cover& a, const Cover& b) {
        return a.bits * b.cycles < b.bits * a.cycles; // bits/cycles ascending
    });
    cover_cycles_prefix_.reserve(covers.size());
    cover_bits_prefix_.reserve(covers.size());
    double cycles_acc = 0.0;
    double bits_acc = 0.0;
    for (const Cover& cover : covers) {
        cycles_acc += cover.cycles;
        bits_acc += cover.bits;
        cover_cycles_prefix_.push_back(cycles_acc);
        cover_bits_prefix_.push_back(bits_acc);
    }

    const VoltageScalingTable& table = arch.scaling_table();
    const PowerModel& power = arch.power_model();
    frequency_hz_.reserve(table.level_count());
    for (std::size_t l = 1; l <= table.level_count(); ++l) {
        const auto level = static_cast<ScalingLevel>(l);
        frequency_hz_.push_back(table.frequency_hz(level));
        active_power_mw_.push_back(power.core_active_power_mw(level));
        energy_per_cycle_mws_.push_back(power.core_energy_per_cycle_mws(level));
        ser_per_bit_second_.push_back(ser.ser_per_bit_second(table.vdd(level)));
    }
}

// seamap-lint: pop-allow(hot-path-alloc)

double ScalingBoundsModel::min_union_bits_covering(double cycles) const {
    if (cycles <= 0.0 || cover_cycles_prefix_.empty()) return 0.0;
    if (cycles >= cover_cycles_prefix_.back()) return cover_bits_prefix_.back();
    const auto at = std::lower_bound(cover_cycles_prefix_.begin(),
                                     cover_cycles_prefix_.end(), cycles);
    const std::size_t i = static_cast<std::size_t>(at - cover_cycles_prefix_.begin());
    const double prev_cycles = i == 0 ? 0.0 : cover_cycles_prefix_[i - 1];
    const double prev_bits = i == 0 ? 0.0 : cover_bits_prefix_[i - 1];
    const double step_cycles = cover_cycles_prefix_[i] - prev_cycles;
    const double step_bits = cover_bits_prefix_[i] - prev_bits;
    return prev_bits + step_bits * (cycles - prev_cycles) / step_cycles;
}

ScalingBounds ScalingBoundsModel::case_bounds(std::span<const PoweredGroup> powered) const {
    const double deadline = deadline_seconds_ * k_deadline_slack;
    ScalingBounds bounds;

    // Whole-run busy-time capacity of one powered core (see header):
    // deadline * slack for a single batch; the pipelined identity
    // T_M = L + (B-1) * II with per-iteration busy <= II and
    // L >= critical path on the case's fastest core is tighter.
    double fmax = 0.0;
    double rate_sum = 0.0;
    for (const auto& [l, n] : powered) {
        fmax = std::max(fmax, frequency_hz_[l]);
        rate_sum += static_cast<double>(n) * frequency_hz_[l];
    }
    double cap_seconds = deadline * k_deadline_slack;
    if (tm_.batches > 1.0) {
        const double latency_min = tm_.critical_path_cycles / tm_.batches / fmax;
        const double pipelined =
            tm_.batches / (tm_.batches - 1.0) * (deadline - latency_min) * k_deadline_slack;
        cap_seconds = std::clamp(pipelined, 0.0, cap_seconds);
    }

    // --- power: idle floor of every powered core + fractional ---------
    // knapsack of the work over the case's energy-per-cycle levels.
    PricedCapacities fill_storage;
    const std::span fills(fill_storage.data(), powered.size()); // (energy/cycle, capacity)
    double idle_power_mw = 0.0;
    const double idle = arch_.power_model().params().idle_activity;
    for (std::size_t i = 0; i < powered.size(); ++i) {
        const auto& [l, n] = powered[i];
        idle_power_mw += idle * static_cast<double>(n) * active_power_mw_[l];
        fills[i] = {energy_per_cycle_mws_[l],
                    static_cast<double>(n) * frequency_hz_[l] * cap_seconds};
    }
    std::sort(fills.begin(), fills.end(), cheaper);
    double remaining = tm_.total_exec_cycles;
    double busy_energy_mws = 0.0; // min sum_i P_a_i * busy_seconds_i
    for (const auto& [energy_per_cycle, cap] : fills) {
        if (remaining <= 0.0) break;
        const double cycles = std::min(remaining, cap);
        busy_energy_mws += cycles * energy_per_cycle;
        remaining -= cycles;
    }
    bounds.power_mw_lb =
        k_bound_shave * (idle_power_mw + (1.0 - idle) * busy_energy_mws / deadline);

    // --- T_M lower bound over the powered cores only (the gate's own
    // formula, restricted to the case: only powered cores do work) ----
    const double tm_lb = tm_.lower_bound_seconds(fmax, rate_sum);

    // --- gamma --------------------------------------------------------
    if (policy_ == ExposurePolicy::full_duration) {
        // Telescoped tier sum over the case's SER rates (see header).
        PricedCapacities tier_storage;
        const std::span tiers(tier_storage.data(), powered.size()); // (lambda, capacity)
        for (std::size_t i = 0; i < powered.size(); ++i) {
            const auto& [l, n] = powered[i];
            tiers[i] = {ser_per_bit_second_[l],
                        static_cast<double>(n) * frequency_hz_[l] * cap_seconds};
        }
        std::sort(tiers.begin(), tiers.end(), cheaper);
        const double lambda_min = tiers.front().price;
        double rate_lb = static_cast<double>(union_bits_all_) * lambda_min;
        double whole_task_extra = 0.0; // b_min floor at the worst forced tier
        double tier_lambda = lambda_min;
        double prefix_cap = 0.0;
        for (const auto& [lambda, cap] : tiers) {
            if (lambda > tier_lambda) {
                const double overflow = tm_.total_exec_cycles - prefix_cap;
                if (overflow <= 0.0) break;
                const double forced_bits =
                    min_union_bits_covering(overflow - cycles_without_registers_);
                rate_lb += (lambda - tier_lambda) * forced_bits;
                whole_task_extra =
                    static_cast<double>(min_task_bits_) * (lambda - lambda_min);
                tier_lambda = lambda;
            }
            prefix_cap += cap;
        }
        // The fractional cover can undercut a single task's set when
        // the overflow is tiny; the whole-task floor is sound on its
        // own, so take the stronger of the two refinements.
        rate_lb = std::max(rate_lb,
                           static_cast<double>(union_bits_all_) * lambda_min +
                               whole_task_extra);
        bounds.gamma_lb = k_bound_shave * tm_lb * rate_lb;
    } else {
        // busy_only: each task's own bits are exposed for at least its
        // execution time, priced at the case's best SEU-per-cycle rate
        // (lambda / f is how long one cycle is exposed).
        double min_rate_per_cycle = std::numeric_limits<double>::infinity();
        for (const auto& [l, n] : powered)
            min_rate_per_cycle =
                std::min(min_rate_per_cycle, ser_per_bit_second_[l] / frequency_hz_[l]);
        bounds.gamma_lb = k_bound_shave * bits_times_cycles_ * min_rate_per_cycle;
    }
    return bounds;
}

/// State of one case_bounds_for walk: the combination's level groups
/// and the powered counts chosen so far, all in fixed storage.
struct ScalingBoundsModel::CaseWalk {
    std::array<PoweredGroup, k_max_groups> groups{};
    std::array<double, k_max_groups> full_capacity{}; ///< each group's term at its full count
    std::size_t group_count = 0;
    std::array<PoweredGroup, k_max_groups> powered{};
    std::size_t powered_count = 0;
    DominanceFront staircase;
};

// A case without the capacity for the work cannot be powered by any
// feasible design. The exact per-case capacity is never larger than the
// rough one, but the fractional knapsack leaving work unplaced proves
// the same thing, so the walk filters on the rough capacity only (cheap
// and sound both ways: extra cases only make the pruning test stricter).
double ScalingBoundsModel::rough_capacity(std::size_t level_index, std::size_t count) const {
    return static_cast<double>(count) * frequency_hz_[level_index] * deadline_seconds_ *
           k_deadline_slack * k_deadline_slack * k_deadline_slack;
}

void ScalingBoundsModel::walk_cases(CaseWalk& walk, std::size_t g, double capacity) const {
    if (g == walk.group_count) {
        const ScalingBounds bounds = case_bounds({walk.powered.data(), walk.powered_count});
        // seamap-lint: allow(hot-path-alloc) -- the staircase is the result;
        // it grows only to its few undominated points, not per case
        walk.staircase.insert(bounds.power_mw_lb, bounds.gamma_lb);
        return;
    }
    const PoweredGroup group = walk.groups[g];
    for (std::size_t n = group.count;; --n) {
        const double sum = n == 0 ? capacity : capacity + rough_capacity(group.level, n);
        // The most capacity any case below can reach: every later
        // group at its full count, summed in the filter's own order.
        double reach = sum;
        for (std::size_t h = g + 1; h < walk.group_count; ++h) reach += walk.full_capacity[h];
        if (reach < tm_.total_exec_cycles) return; // fewer cores here only lower it
        if (n > 0) walk.powered[walk.powered_count++] = {group.level, n};
        walk_cases(walk, g + 1, sum);
        if (n == 0) return;
        --walk.powered_count;
    }
}

std::vector<ScalingBounds> ScalingBoundsModel::case_bounds_for(
    const ScalingVector& levels) const {
    arch_.validate_scaling(levels);
    if (tm_.total_exec_cycles <= 0.0 || deadline_seconds_ <= 0.0) return {};

    // Cores at one level are interchangeable, so a powered-core case is
    // a count per distinct level: the groups, in ascending level order.
    std::array<std::size_t, k_max_groups> per_level{};
    for (const ScalingLevel level : levels) ++per_level[static_cast<std::size_t>(level) - 1];
    CaseWalk walk;
    for (std::size_t l = 0; l < per_level.size(); ++l) {
        if (per_level[l] == 0) continue;
        walk.groups[walk.group_count] = {l, per_level[l]};
        walk.full_capacity[walk.group_count] = rough_capacity(l, per_level[l]);
        ++walk.group_count;
    }
    walk_cases(walk, 0, 0.0);
    return std::move(walk.staircase).points();
}

} // namespace seamap
