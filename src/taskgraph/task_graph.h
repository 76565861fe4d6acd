// Directed acyclic task-graph application model (Section II-B of the
// paper): nodes are computational tasks with an execution cost in clock
// cycles and a register working set; edges carry inter-task
// communication costs in clock cycles that are paid only when producer
// and consumer map to different cores.
//
// A TaskGraph optionally models a *batched* application: `batch_count`
// iterations of the graph flow through the system (437 frames for the
// MPEG-2 decoder). Task/edge costs always store the whole-run totals;
// per-iteration costs are totals / batch_count.
#pragma once

#include "taskgraph/register_file.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace seamap {

using TaskId = std::uint32_t;

/// One computational task.
struct Task {
    std::string name;
    /// Whole-run execution cost in clock cycles.
    std::uint64_t exec_cycles = 0;
    /// Register working set (bitset over the graph's register file).
    RegisterSet registers;
};

/// One dependency edge with a whole-run communication cost in cycles.
struct Edge {
    TaskId src = 0;
    TaskId dst = 0;
    std::uint64_t comm_cycles = 0;
};

/// Immutable-after-build DAG application model. Build with add_task /
/// add_edge, then call validate() once; algorithms assume a validated
/// graph.
class TaskGraph {
public:
    TaskGraph(std::string name, RegisterFile registers);

    // --- construction -------------------------------------------------
    /// Add a task; `register_ids` may contain duplicates (ignored).
    TaskId add_task(std::string name, std::uint64_t exec_cycles,
                    std::span<const RegisterId> register_ids = {});
    /// Add a dependency edge; self-loops and duplicate (src,dst) pairs
    /// are rejected.
    void add_edge(TaskId src, TaskId dst, std::uint64_t comm_cycles);
    /// Number of iterations of the graph that flow through the system
    /// (>= 1); see file comment.
    void set_batch_count(std::uint64_t batches);
    /// Checks the graph is a nonempty DAG; throws std::invalid_argument
    /// with a description otherwise.
    void validate() const;

    // --- basic accessors ----------------------------------------------
    const std::string& name() const { return name_; }
    const RegisterFile& register_file() const { return registers_; }
    std::uint64_t batch_count() const { return batch_count_; }
    std::size_t task_count() const { return tasks_.size(); }
    std::size_t edge_count() const { return edges_.size(); }
    /// Bounds-checked: an out-of-range id throws std::out_of_range.
    const Task& task(TaskId id) const {
        check_task(id);
        return tasks_[id];
    }
    const std::vector<Edge>& edges() const { return edges_; }
    /// Bounds-checked: an out-of-range index throws std::out_of_range.
    const Edge& edge(std::size_t index) const {
        if (index >= edges_.size()) [[unlikely]]
            throw_bad_edge_index();
        return edges_[index];
    }

    /// Indices into edges() of a task's outgoing / incoming edges.
    /// Bounds-checked like task().
    std::span<const std::size_t> out_edge_indices(TaskId id) const {
        check_task(id);
        return out_edges_[id];
    }
    std::span<const std::size_t> in_edge_indices(TaskId id) const {
        check_task(id);
        return in_edges_[id];
    }
    /// Convenience id list (allocates).
    std::vector<TaskId> successors(TaskId id) const;

    // --- graph-level metrics -------------------------------------------
    /// Tasks with no predecessors / successors.
    std::vector<TaskId> source_tasks() const;
    std::vector<TaskId> sink_tasks() const;
    /// Kahn topological order; throws if the graph has a cycle.
    std::vector<TaskId> topological_order() const;
    /// Sum of task execution costs (whole run).
    std::uint64_t total_exec_cycles() const;
    /// Sum of edge communication costs (whole run).
    std::uint64_t total_comm_cycles() const;
    /// Longest path in execution cycles; optionally adds edge costs
    /// (the all-edges-remote upper bound).
    std::uint64_t critical_path_cycles(bool include_comm) const;

    // --- register-set queries (eq. 8 building blocks) -------------------
    /// Total bits of one task's working set.
    std::uint64_t task_register_bits(TaskId id) const;
    /// Bits of the union of several tasks' working sets (eq. 8 for one
    /// core holding exactly these tasks).
    std::uint64_t union_register_bits(std::span<const TaskId> ids) const;
    /// Union working set of several tasks.
    RegisterSet union_register_set(std::span<const TaskId> ids) const;

private:
    // The accessors above are inline because the evaluation kernel calls
    // them per task and per edge; the throws stay out of line and cold.
    void check_task(TaskId id) const {
        if (id >= tasks_.size()) [[unlikely]]
            throw_bad_task_id();
    }
    [[noreturn]] static void throw_bad_task_id();
    [[noreturn]] static void throw_bad_edge_index();

    std::string name_;
    RegisterFile registers_;
    std::uint64_t batch_count_ = 1;
    std::vector<Task> tasks_;
    std::vector<Edge> edges_;
    std::vector<std::vector<std::size_t>> out_edges_;
    std::vector<std::vector<std::size_t>> in_edges_;
};

} // namespace seamap
