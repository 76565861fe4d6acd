#include "core/initial_mapping.h"

#include "reliability/register_usage.h"
#include "util/float_compare.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <optional>

namespace seamap {

namespace {

/// Bookkeeping for the core currently being filled.
struct CoreState {
    CoreId id = 0;
    RegisterSet registers;
    std::uint64_t busy_cycles = 0;
    double frequency_hz = 0.0;
    double vdd = 0.0;

    double busy_seconds() const { return static_cast<double>(busy_cycles) / frequency_hz; }
};

/// Busy-cycle increment of adding `task` to the core: its execution
/// plus the communication of every edge that currently looks remote.
std::uint64_t busy_increment(const EvaluationContext& ctx, const Mapping& mapping, CoreId core,
                             TaskId task) {
    std::uint64_t cycles = ctx.graph.task(task).exec_cycles;
    for (std::size_t idx : ctx.graph.out_edge_indices(task)) {
        const Edge& e = ctx.graph.edge(idx);
        if (!mapping.is_assigned(e.dst) || mapping.core_of(e.dst) != core)
            cycles += e.comm_cycles;
    }
    for (std::size_t idx : ctx.graph.in_edge_indices(task)) {
        const Edge& e = ctx.graph.edge(idx);
        // A producer already placed on another core pays for this edge;
        // placing the consumer here cannot remove that cost, but placing
        // it on the producer's core would. Count it so the greedy sees
        // the locality benefit.
        if (mapping.is_assigned(e.src) && mapping.core_of(e.src) != core)
            cycles += e.comm_cycles;
    }
    return cycles;
}

/// Score of "map `task` on this core now": the core's expected SEUs
/// afterwards (register-union bits x busy exposure x SER at the core's
/// voltage). Lower is better; ties break on the time increment, per
/// Fig. 6 line 9 ("minimum SEUs and Time").
struct CandidateScore {
    double gamma = 0.0;
    double busy_seconds = 0.0;

    bool operator<(const CandidateScore& other) const {
        if (!exactly_equal(gamma, other.gamma)) return gamma < other.gamma;
        return busy_seconds < other.busy_seconds;
    }
};

CandidateScore score_candidate(const EvaluationContext& ctx, const Mapping& mapping,
                               const CoreState& core, TaskId task) {
    const std::uint64_t new_bits =
        register_bits_with_candidate(ctx.graph, core.registers, task);
    const std::uint64_t new_busy = core.busy_cycles + busy_increment(ctx, mapping, core.id, task);
    const double busy_seconds = static_cast<double>(new_busy) / core.frequency_hz;
    CandidateScore score;
    score.busy_seconds = busy_seconds;
    score.gamma = ctx.estimator.core_gamma(new_bits, busy_seconds, core.vdd);
    return score;
}

} // namespace

Mapping initial_sea_mapping(const EvaluationContext& ctx) {
    ctx.graph.validate();
    ctx.arch.validate_scaling(ctx.levels);
    const std::size_t n = ctx.graph.task_count();
    const std::size_t cores = ctx.arch.core_count();

    Mapping mapping(n, cores);
    std::deque<TaskId> queue;
    std::vector<bool> queued(n, false);
    for (TaskId t : ctx.graph.source_tasks()) {
        queue.push_back(t);
        queued[t] = true;
    }

    auto pop_unmapped = [&]() -> std::optional<TaskId> {
        while (!queue.empty()) {
            const TaskId t = queue.front();
            queue.pop_front();
            if (!mapping.is_assigned(t)) return t;
        }
        return std::nullopt;
    };
    auto lowest_unmapped = [&]() -> std::optional<TaskId> {
        for (TaskId t = 0; t < n; ++t)
            if (!mapping.is_assigned(t)) return t;
        return std::nullopt;
    };

    const std::size_t last_core = cores - 1;
    for (std::size_t c = 0; c + 1 < cores || cores == 1; ++c) {
        if (mapping.complete()) break;
        CoreState core;
        core.id = static_cast<CoreId>(c);
        core.registers = RegisterSet(ctx.graph.register_file().size());
        core.frequency_hz = ctx.arch.frequency_hz(ctx.levels[c]);
        core.vdd = ctx.arch.scaling_table().vdd(ctx.levels[c]);

        auto seed = pop_unmapped();
        if (!seed) seed = lowest_unmapped();
        if (!seed) break;
        TaskId current = *seed;
        core.busy_cycles += busy_increment(ctx, mapping, core.id, current);
        mapping.assign(current, core.id);
        core.registers |= ctx.graph.task(current).registers;

        while (true) {
            const std::size_t remaining_cores = cores - 1 - c;
            const std::size_t unmapped = n - mapping.assigned_count();
            // Keep at least one task for every remaining core
            // (Fig. 6 line 4) and respect the per-core time budget.
            if (unmapped <= remaining_cores) break;
            if (ctx.deadline_seconds > 0.0 && core.busy_seconds() >= ctx.deadline_seconds) break;

            // Dependency list L: unmapped dependents of the current
            // task, scored by the SEUs the core would experience.
            TaskId best_task = 0;
            CandidateScore best_score{std::numeric_limits<double>::infinity(),
                                      std::numeric_limits<double>::infinity()};
            bool have_candidate = false;
            std::vector<TaskId> others;
            for (std::size_t idx : ctx.graph.out_edge_indices(current)) {
                const TaskId dep = ctx.graph.edge(idx).dst;
                if (mapping.is_assigned(dep)) continue;
                const CandidateScore score = score_candidate(ctx, mapping, core, dep);
                if (!have_candidate || score < best_score) {
                    if (have_candidate) others.push_back(best_task);
                    best_task = dep;
                    best_score = score;
                    have_candidate = true;
                } else {
                    others.push_back(dep);
                }
            }

            if (have_candidate) {
                // Map the minimum-SEU dependent; the rest of L joins Q.
                for (TaskId t : others) {
                    if (!queued[t]) {
                        queue.push_back(t);
                        queued[t] = true;
                    }
                }
                current = best_task;
            } else {
                // L empty: continue this core from the queue.
                const auto next = pop_unmapped();
                if (!next) break;
                current = *next;
            }
            core.busy_cycles += busy_increment(ctx, mapping, core.id, current);
            mapping.assign(current, core.id);
            core.registers |= ctx.graph.task(current).registers;
        }
        if (cores == 1) break;
    }

    // Whatever is left belongs to the last core.
    for (TaskId t = 0; t < n; ++t)
        if (!mapping.is_assigned(t)) mapping.assign(t, static_cast<CoreId>(last_core));
    return mapping;
}

} // namespace seamap
