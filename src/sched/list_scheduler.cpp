#include "sched/list_scheduler.h"

#include "util/float_compare.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <stdexcept>

// The tm_* bound functions at the bottom of this file run once per
// scaling combination inside the explorer's enumeration/planning loop
// and must stay allocation-free; the marker arms seamap_lint's
// hot-path-alloc rule for the whole file. The naive reference
// scheduler and the per-scaling precomputation allocate by design and
// sit in explicitly allowed regions.
// seamap-lint: hot-path

namespace seamap {

namespace {

// seamap-lint: push-allow(hot-path-alloc) -- b_levels through schedule()
// are per-scaling precomputation and the naive *reference* evaluation
// path the EvalContext equivalence harness pins against; neither runs
// in the steady-state candidate-evaluation loop
/// Static b-levels in cycles (exec + comm along the longest path to a
/// sink), frequency-independent.
std::vector<std::uint64_t> b_levels(const TaskGraph& graph) {
    const auto order = graph.topological_order();
    std::vector<std::uint64_t> level(graph.task_count(), 0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const TaskId id = *it;
        std::uint64_t best_child = 0;
        for (std::size_t idx : graph.out_edge_indices(id)) {
            const Edge& e = graph.edge(idx);
            best_child = std::max(best_child, e.comm_cycles + level[e.dst]);
        }
        level[id] = graph.task(id).exec_cycles + best_child;
    }
    return level;
}

void check_inputs(const TaskGraph& graph, const Mapping& mapping, const MpsocArchitecture& arch,
                  const ScalingVector& levels) {
    if (mapping.task_count() != graph.task_count())
        throw std::invalid_argument("ListScheduler: mapping task count != graph task count");
    if (mapping.core_count() != arch.core_count())
        throw std::invalid_argument("ListScheduler: mapping core count != architecture");
    if (!mapping.complete())
        throw std::invalid_argument("ListScheduler: mapping is incomplete");
    arch.validate_scaling(levels);
}

} // namespace

// Keeps schedule()'s selection *rule* without sharing its loop:
// schedule() is the naive *reference* the EvalContext equivalence
// harness pins the fast path against, so the two must not share
// machinery. This copy pre-ranks tasks by the rule's total order
// (b-level descending, ties by id) and extracts through a min-heap of
// ranks: ranks are a strict total order, so the heap's top is
// schedule()'s min_element pick. Changing the tie-break or ready-push
// order in either copy fails tests/core/eval_context_equivalence_test.
std::vector<TaskId> static_schedule_order(const TaskGraph& graph) {
    const std::size_t n = graph.task_count();
    const auto priority = b_levels(graph);
    // Rank r = position in the selection order: the ready task with the
    // minimum rank is exactly the min_element pick.
    std::vector<TaskId> task_of_rank(n);
    for (TaskId t = 0; t < n; ++t) task_of_rank[t] = t;
    std::sort(task_of_rank.begin(), task_of_rank.end(), [&](TaskId a, TaskId b) {
        if (priority[a] != priority[b]) return priority[a] > priority[b];
        return a < b;
    });
    std::vector<std::size_t> rank_of(n);
    for (std::size_t r = 0; r < n; ++r) rank_of[task_of_rank[r]] = r;

    std::vector<std::size_t> unscheduled_preds(n, 0);
    for (TaskId t = 0; t < n; ++t) unscheduled_preds[t] = graph.in_edge_indices(t).size();
    std::priority_queue<std::size_t, std::vector<std::size_t>, std::greater<>> ready;
    for (TaskId t = 0; t < n; ++t)
        if (unscheduled_preds[t] == 0) ready.push(rank_of[t]);

    std::vector<TaskId> order;
    order.reserve(n);
    while (!ready.empty()) {
        const TaskId t = task_of_rank[ready.top()];
        ready.pop();
        order.push_back(t);
        for (std::size_t idx : graph.out_edge_indices(t)) {
            const Edge& e = graph.edge(idx);
            if (--unscheduled_preds[e.dst] == 0) ready.push(rank_of[e.dst]);
        }
    }
    if (order.size() != n)
        throw std::logic_error("static_schedule_order: graph not fully ordered");
    return order;
}

std::vector<std::uint64_t> per_core_busy_cycles(const TaskGraph& graph, const Mapping& mapping,
                                                std::size_t core_count) {
    if (mapping.task_count() != graph.task_count())
        throw std::invalid_argument("per_core_busy_cycles: mapping/graph size mismatch");
    std::vector<std::uint64_t> busy(core_count, 0);
    for (TaskId t = 0; t < graph.task_count(); ++t) {
        if (!mapping.is_assigned(t)) continue;
        const CoreId core = mapping.core_of(t);
        if (core >= core_count) throw std::out_of_range("per_core_busy_cycles: bad core id");
        busy[core] += graph.task(t).exec_cycles;
        for (std::size_t idx : graph.out_edge_indices(t)) {
            const Edge& e = graph.edge(idx);
            // Producer pays the transfer when the consumer is on another
            // core (or not yet placed — pessimistic for partial mappings).
            if (!mapping.is_assigned(e.dst) || mapping.core_of(e.dst) != core)
                busy[core] += e.comm_cycles;
        }
    }
    return busy;
}

Schedule ListScheduler::schedule(const TaskGraph& graph, const Mapping& mapping,
                                 const MpsocArchitecture& arch,
                                 const ScalingVector& levels) const {
    check_inputs(graph, mapping, arch, levels);
    const std::size_t n = graph.task_count();
    const std::size_t cores = arch.core_count();
    const double batches = static_cast<double>(graph.batch_count());

    const auto priority = b_levels(graph);

    // Per-iteration durations in seconds.
    std::vector<double> core_freq(cores);
    for (std::size_t c = 0; c < cores; ++c) core_freq[c] = arch.frequency_hz(levels[c]);
    auto exec_seconds = [&](TaskId t) {
        return static_cast<double>(graph.task(t).exec_cycles) / batches /
               core_freq[mapping.core_of(t)];
    };
    auto comm_seconds = [&](const Edge& e) {
        return static_cast<double>(e.comm_cycles) / batches / core_freq[mapping.core_of(e.src)];
    };

    // Event-driven list scheduling: repeatedly pick, among dependency-
    // ready tasks, the highest-priority one, and place it on its mapped
    // core at the earliest feasible time.
    std::vector<std::size_t> unscheduled_preds(n, 0);
    for (TaskId t = 0; t < n; ++t) unscheduled_preds[t] = graph.in_edge_indices(t).size();
    std::vector<TaskId> ready;
    for (TaskId t = 0; t < n; ++t)
        if (unscheduled_preds[t] == 0) ready.push_back(t);

    Schedule result;
    result.entries.resize(n);
    std::vector<double> core_free(cores, 0.0);
    std::vector<double> data_ready(n, 0.0);
    std::size_t scheduled = 0;
    while (!ready.empty()) {
        // Highest b-level first; ties by id for determinism.
        const auto best = std::min_element(ready.begin(), ready.end(), [&](TaskId a, TaskId b) {
            if (priority[a] != priority[b]) return priority[a] > priority[b];
            return a < b;
        });
        const TaskId t = *best;
        ready.erase(best);

        const CoreId core = mapping.core_of(t);
        const double start = std::max(core_free[core], data_ready[t]);
        const double finish = start + exec_seconds(t);
        result.entries[t] = ScheduledTask{t, core, start, finish};
        ++scheduled;

        // Outbound cross-core transfers occupy the producer core after
        // the task body (eq. 7 charges d_jk to the producer), serialized
        // in edge order over its dedicated links.
        double cursor = finish;
        for (std::size_t idx : graph.out_edge_indices(t)) {
            const Edge& e = graph.edge(idx);
            const bool cross = mapping.core_of(e.dst) != core;
            double arrival = finish;
            if (cross) {
                cursor += comm_seconds(e);
                arrival = cursor;
            }
            data_ready[e.dst] = std::max(data_ready[e.dst], arrival);
            if (--unscheduled_preds[e.dst] == 0) ready.push_back(e.dst);
        }
        core_free[core] = cursor;
    }
    if (scheduled != n)
        throw std::logic_error("ListScheduler: internal error, graph not fully scheduled");

    // Latency of one iteration.
    double latency = 0.0;
    for (const auto& entry : result.entries) latency = std::max(latency, entry.finish_seconds);
    result.latency_seconds = latency;

    // Whole-run busy accounting (eq. 7) and pipelined completion time.
    result.core_busy_cycles = per_core_busy_cycles(graph, mapping, cores);
    result.core_busy_seconds.resize(cores);
    double ii = 0.0;
    for (std::size_t c = 0; c < cores; ++c) {
        result.core_busy_seconds[c] =
            static_cast<double>(result.core_busy_cycles[c]) / core_freq[c];
        ii = std::max(ii, result.core_busy_seconds[c] / batches);
    }
    result.initiation_interval_seconds = ii;
    result.total_time_seconds = latency + (batches - 1.0) * ii;

    result.utilization.resize(cores);
    for (std::size_t c = 0; c < cores; ++c) {
        result.utilization[c] = result.total_time_seconds > 0.0
                                    ? std::min(1.0, result.core_busy_seconds[c] /
                                                        result.total_time_seconds)
                                    : 0.0;
    }
    return result;
}
// seamap-lint: pop-allow(hot-path-alloc)

double tm_estimate_eq6_seconds(const TaskGraph& graph, const Mapping& mapping,
                               const MpsocArchitecture& arch, const ScalingVector& levels) {
    arch.validate_scaling(levels);
    const auto busy = per_core_busy_cycles(graph, mapping, arch.core_count());
    std::uint64_t total_cycles = 0;
    double total_rate = 0.0;
    for (std::size_t c = 0; c < arch.core_count(); ++c) {
        total_cycles += busy[c];
        if (busy[c] > 0) total_rate += arch.frequency_hz(levels[c]);
    }
    if (exactly_zero(total_rate)) return 0.0;
    return static_cast<double>(total_cycles) / total_rate;
}

TmBoundAggregates::TmBoundAggregates(const TaskGraph& graph)
    : batches(static_cast<double>(graph.batch_count())),
      critical_path_cycles(static_cast<double>(graph.critical_path_cycles(false))),
      total_exec_cycles(static_cast<double>(graph.total_exec_cycles())) {
    std::uint64_t biggest_task = 0;
    for (TaskId t = 0; t < graph.task_count(); ++t)
        biggest_task = std::max(biggest_task, graph.task(t).exec_cycles);
    biggest_task_cycles = static_cast<double>(biggest_task);
}

double tm_lower_bound_seconds(const TaskGraph& graph, const MpsocArchitecture& arch,
                              const ScalingVector& levels) {
    arch.validate_scaling(levels);
    return TmBoundAggregates(graph).lower_bound_seconds(arch, levels);
}

double TmBoundAggregates::lower_bound_seconds(const MpsocArchitecture& arch,
                                              const ScalingVector& levels) const {
    double fastest = 0.0;
    double total_rate = 0.0;
    for (std::size_t c = 0; c < arch.core_count(); ++c) {
        const double f = arch.frequency_hz(levels[c]);
        fastest = std::max(fastest, f);
        total_rate += f;
    }
    return lower_bound_seconds(fastest, total_rate);
}

double TmBoundAggregates::lower_bound_seconds(double fastest_hz, double total_rate_hz) const {
    // Latency bound: the no-communication critical path of one
    // iteration cannot beat the fastest core's clock...
    const double latency_bound = critical_path_cycles / batches / fastest_hz;
    // ...and throughput cannot beat all cores working flat out.
    const double work_bound = total_exec_cycles / total_rate_hz;
    // Pipelined completion combines both: latency for the first
    // iteration, bottleneck throughput for the rest. The initiation
    // interval is floored by the biggest single task (atomic, on the
    // fastest core) and by the per-iteration work spread over every
    // core working flat out — the latter is what work_bound measures,
    // but adding the first iteration's latency on top of (B-1)
    // intervals is strictly stronger than B intervals alone whenever
    // the critical path exceeds one balanced interval.
    const double ii_bound =
        std::max(biggest_task_cycles / batches / fastest_hz, work_bound / batches);
    return std::max({latency_bound + (batches - 1.0) * ii_bound, work_bound, latency_bound});
}

} // namespace seamap
