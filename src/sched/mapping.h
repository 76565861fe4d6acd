// Task-to-core mapping: the decision variable of the whole paper. A
// Mapping assigns every task of a graph to one core of the MPSoC;
// partial mappings occur during greedy construction.
#pragma once

#include "taskgraph/task_graph.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace seamap {

using CoreId = std::uint32_t;

/// Assignment of tasks to cores. Starts fully unassigned.
class Mapping {
public:
    Mapping() = default;
    Mapping(std::size_t task_count, std::size_t core_count);

    std::size_t task_count() const { return core_of_.size(); }
    std::size_t core_count() const { return core_count_; }

    void assign(TaskId task, CoreId core);

    bool is_assigned(TaskId task) const;
    /// Core of a task; throws std::logic_error if unassigned.
    CoreId core_of(TaskId task) const;

    /// True when every task has a core.
    bool complete() const;
    std::size_t assigned_count() const { return assigned_count_; }

    /// Task ids mapped to `core`, ascending.
    std::vector<TaskId> tasks_on(CoreId core) const;
    /// Number of tasks mapped to `core`.
    std::size_t task_count_on(CoreId core) const;
    /// Number of cores with at least one task.
    std::size_t used_core_count() const;

    bool operator==(const Mapping& other) const = default;

    /// Raw per-task core array (k_unassigned where unset) — handy for
    /// exports and hashing.
    static constexpr CoreId k_unassigned = 0xffffffffu;
    const std::vector<CoreId>& raw() const { return core_of_; }

private:
    void check_task(TaskId task) const;

    std::vector<CoreId> core_of_;
    std::size_t core_count_ = 0;
    std::size_t assigned_count_ = 0;
};

/// Tasks dealt to cores in topological order, round-robin. Complete by
/// construction; a common search seed and test fixture.
Mapping round_robin_mapping(const TaskGraph& graph, std::size_t core_count);

/// Everything on core 0 (the fully localized extreme).
Mapping single_core_mapping(const TaskGraph& graph, std::size_t core_count);

} // namespace seamap
