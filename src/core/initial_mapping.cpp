#include "core/initial_mapping.h"

#include "util/float_compare.h"

#include <algorithm>
#include <utility>

// Fig. 6 runs once per searched slot on every explorer worker, so the
// fill step must not allocate; per-call setup is the one allowed region.
// seamap-lint: hot-path

namespace seamap {

namespace {

constexpr TaskId k_no_task = ~TaskId{0};

/// What one core's fill leaves for the next: the partial mapping, the
/// queue Q of bypassed dependents and a lowest-unmapped cursor, which
/// only moves up. The `queued` flags let a task enter Q at most once,
/// so Q is an n-slot array whose pending part is [head, tail).
struct GreedyState {
    Mapping mapping;
    std::vector<TaskId> queue;
    std::size_t head = 0;
    std::size_t tail = 0;
    std::vector<bool> queued;
    TaskId lowest = 0;
    /// Register union of the core being filled; each fill clears it.
    RegisterSet core_registers;

    // seamap-lint: push-allow(hot-path-alloc) -- per-call setup, sized once, never grows
    GreedyState(const TaskGraph& graph, std::size_t cores)
        : mapping(graph.task_count(), cores), queue(graph.task_count()),
          queued(graph.task_count(), false), core_registers(graph.register_file().size()) {
        for (TaskId t = 0; t < graph.task_count(); ++t)
            if (graph.in_edge_indices(t).empty()) enqueue(t);
    }
    // seamap-lint: pop-allow(hot-path-alloc)

    void enqueue(TaskId t) {
        if (!queued[t]) queue[tail++] = t;
        queued[t] = true;
    }
    /// The next unmapped task in Q, or k_no_task.
    TaskId pop_unmapped() {
        while (head < tail) {
            const TaskId t = queue[head++];
            if (!mapping.is_assigned(t)) return t;
        }
        return k_no_task;
    }
    TaskId lowest_unmapped() {
        while (mapping.is_assigned(lowest)) ++lowest;
        return lowest;
    }
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

/// Bits `task` adds to a core holding `held`: the widths of its
/// registers not yet in the union. Integer sums are exact, so the
/// core's running count plus this equals the union's bits_in().
std::uint64_t added_register_bits(const TaskGraph& graph, const RegisterSet& held, TaskId task) {
    std::uint64_t bits = 0;
    graph.task(task).registers.for_each([&](RegisterId id) {
        if (((held.words()[id / 64] >> (id % 64)) & 1U) == 0)
            bits += graph.register_file().bits(id);
    });
    return bits;
}

/// Score of "map a task on this core now": the core's expected SEUs
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

/// Fill core `c` (Fig. 6 lines 3-12); requires an unmapped task. Seed
/// it from Q, else with the lowest unmapped task, then map the
/// minimum-SEU unmapped dependent of the last task mapped until only
/// `cores_after` tasks are left or the core's busy time reaches the
/// deadline. It reads only what earlier fills left in `state`,
/// levels[c] (the core's frequency and Vdd), the deadline and
/// `cores_after`, so equal inputs leave equal states.
void fill_core(const EvaluationContext& ctx, GreedyState& state, CoreId c,
               std::size_t cores_after) {
    const double frequency_hz = ctx.arch.frequency_hz(ctx.levels[c]);
    const double vdd = ctx.arch.scaling_table().vdd(ctx.levels[c]);
    std::uint64_t busy_cycles = 0;
    std::uint64_t register_bits = 0;
    state.core_registers.clear();

    TaskId current = state.pop_unmapped();
    if (current == k_no_task) current = state.lowest_unmapped();
    while (true) {
        busy_cycles += busy_increment(ctx, state.mapping, c, current);
        register_bits += added_register_bits(ctx.graph, state.core_registers, current);
        state.core_registers |= ctx.graph.task(current).registers;
        state.mapping.assign(current, c);

        // Keep at least one task for every later core (Fig. 6 line 4)
        // and respect the per-core time budget.
        if (ctx.graph.task_count() - state.mapping.assigned_count() <= cores_after) return;
        if (ctx.deadline_seconds > 0.0 &&
            static_cast<double>(busy_cycles) / frequency_hz >= ctx.deadline_seconds)
            return;

        // Score L, the unmapped dependents of `current`: each comparison's
        // loser joins Q; the winner, or Q's next task if L is empty, is next.
        TaskId best = k_no_task;
        CandidateScore best_score;
        for (std::size_t idx : ctx.graph.out_edge_indices(current)) {
            TaskId dep = ctx.graph.edge(idx).dst;
            if (state.mapping.is_assigned(dep)) continue;
            const double busy_seconds =
                static_cast<double>(busy_cycles + busy_increment(ctx, state.mapping, c, dep)) /
                frequency_hz;
            const std::uint64_t bits =
                register_bits + added_register_bits(ctx.graph, state.core_registers, dep);
            const CandidateScore score{ctx.estimator.core_gamma(bits, busy_seconds, vdd),
                                       busy_seconds};
            if (best == k_no_task || score < best_score) {
                std::swap(best, dep);
                best_score = score;
            }
            if (dep != k_no_task) state.enqueue(dep);
        }
        current = best != k_no_task ? best : state.pop_unmapped();
        if (current == k_no_task) return;
    }
}

} // namespace

Mapping initial_sea_mapping(const EvaluationContext& ctx) {
    ctx.graph.validate();
    ctx.arch.validate_scaling(ctx.levels);
    const std::size_t cores = ctx.arch.core_count();
    GreedyState state(ctx.graph, cores);
    for (CoreId c = 0; c < std::max<std::size_t>(cores - 1, 1) && !state.mapping.complete(); ++c)
        fill_core(ctx, state, c, cores - 1 - c);

    // Whatever is left belongs to the last core.
    while (!state.mapping.complete())
        state.mapping.assign(state.lowest_unmapped(), static_cast<CoreId>(cores - 1));
    return std::move(state.mapping);
}

} // namespace seamap
