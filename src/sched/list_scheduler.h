// List scheduling of a mapped task graph on the MPSoC, and the paper's
// execution-time model.
//
// Execution model
// ---------------
// The graph's costs are whole-run totals over `batch_count` iterations
// (437 frames for the MPEG-2 decoder). The system processes iterations
// in a pipeline: iteration n+1 of a task can start as soon as the core
// is free, so steady-state throughput is set by the *bottleneck core*
// while single-iteration latency comes from the DAG schedule. The
// completion time reported as the paper's multiprocessor execution time
// T_M is therefore
//     T_M = L + (B - 1) * II
// where L  = list-schedule makespan of one iteration (seconds),
//       II = max_i (per-iteration busy time of core i), and
//       B  = batch_count. For B = 1 this degenerates to the plain DAG
// makespan. This is the model under which the paper's observations
// cohere: task distribution must buy real throughput for DVS to exploit
// (Section III), and eq. (7)'s per-core busy time is what the
// InitialSEAMapping deadline test consumes.
//
// Communication: an edge (j, k) costs cycles only when j and k map to
// different cores (dedicated point-to-point links, Fig. 1); the
// *producer's* core pays the transfer at its own clock, per eq. (7)'s
// attribution of d_jk to the core j is mapped on. Transfers occupy the
// producer core after the task body (serialized in edge order), so the
// schedule timeline and eq. (7)'s busy accounting agree exactly:
// latency L >= every core's per-iteration busy time.
//
// Priorities: static b-level (longest exec+comm path from the task to
// any sink, in cycles) — ties broken by task id for determinism.
#pragma once

#include "arch/mpsoc.h"
#include "arch/scaling_enumerator.h"
#include "sched/mapping.h"
#include "taskgraph/task_graph.h"

#include <cstdint>
#include <vector>

namespace seamap {

/// One scheduled task instance (single iteration).
struct ScheduledTask {
    TaskId task = 0;
    CoreId core = 0;
    double start_seconds = 0.0;
    double finish_seconds = 0.0;
};

/// Result of scheduling a complete mapping.
struct Schedule {
    /// Per-task entries, indexed by TaskId.
    std::vector<ScheduledTask> entries;
    /// Single-iteration DAG makespan L, seconds.
    double latency_seconds = 0.0;
    /// Steady-state initiation interval II (bottleneck core), seconds.
    double initiation_interval_seconds = 0.0;
    /// Pipelined completion time T_M = L + (B-1)*II, seconds.
    double total_time_seconds = 0.0;
    /// Whole-run busy cycles per core: eq. (7)'s T_i (exec + outbound
    /// cross-core communication).
    std::vector<std::uint64_t> core_busy_cycles;
    /// Whole-run busy time per core, seconds (busy cycles / core clock).
    std::vector<double> core_busy_seconds;
    /// busy_seconds_i / total_time — the alpha_i of eq. (5).
    std::vector<double> utilization;

    /// Convenience: does the schedule meet a deadline (with a relative
    /// tolerance for floating-point round-off)?
    bool meets_deadline(double deadline_seconds) const {
        return total_time_seconds <= deadline_seconds * (1.0 + 1e-9);
    }
};

/// Deterministic list scheduler.
class ListScheduler {
public:
    /// Schedule `mapping` (must be complete) on `arch` at the per-core
    /// scaling `levels`. Throws std::invalid_argument on incomplete
    /// mappings or mismatched sizes.
    Schedule schedule(const TaskGraph& graph, const Mapping& mapping,
                      const MpsocArchitecture& arch, const ScalingVector& levels) const;
};

/// The exact sequence in which ListScheduler::schedule places tasks.
/// The scheduler picks, among dependency-ready tasks, the highest
/// static b-level (ties by task id) — a strict total order on a set
/// that evolves purely from the graph structure, so the sequence is a
/// pure function of the graph: independent of the mapping and of the
/// scaling levels. core/eval_context.h's EvalPlan computes it once per
/// explore and replays only timing arithmetic per candidate.
std::vector<TaskId> static_schedule_order(const TaskGraph& graph);

/// Whole-run busy cycles per core (eq. 7) without building a schedule;
/// tolerates partial mappings (unassigned tasks contribute nothing).
/// Cross-core edges whose consumer is still unmapped are charged to the
/// producer (pessimistic, matches the greedy's incremental use).
std::vector<std::uint64_t> per_core_busy_cycles(const TaskGraph& graph, const Mapping& mapping,
                                                std::size_t core_count);

/// The paper's eq. (6) estimate of T_M in seconds: total mapped cycles
/// (exec + cross-core comm) divided by the summed clock rate of the
/// cores that have tasks.
double tm_estimate_eq6_seconds(const TaskGraph& graph, const Mapping& mapping,
                               const MpsocArchitecture& arch, const ScalingVector& levels);

/// The graph side of the lower bound on achievable T_M, aggregated once
/// per problem. For a set of working cores the bound is
/// max(critical-path latency on the fastest core, total work spread
/// over all of them, pipelined latency + (B-1) initiation intervals).
/// One formula serves the feasibility gate (tm_lower_bound_seconds and
/// the explorer's lazy queue) and the branch-and-bound bounds
/// (core/scaling_bounds.cpp evaluates it per powered-core case, where
/// only the chosen cores' rates count), so gate and bound model can
/// never drift apart. Cycle quantities are whole-run totals.
struct TmBoundAggregates {
    explicit TmBoundAggregates(const TaskGraph& graph);

    /// The bound over cores whose fastest clock and summed clock rate
    /// are given (Hz, both positive).
    double lower_bound_seconds(double fastest_hz, double total_rate_hz) const;

    double batches = 1.0;
    double critical_path_cycles = 0.0; ///< no communication
    double total_exec_cycles = 0.0;
    double biggest_task_cycles = 0.0; ///< a single task
};

/// The bound at a given scaling, over all mappings onto every core.
/// Used by the DSE to skip hopeless scalings.
double tm_lower_bound_seconds(const TaskGraph& graph, const MpsocArchitecture& arch,
                              const ScalingVector& levels);

} // namespace seamap
