#include "sched/mapping.h"

#include <stdexcept>

namespace seamap {

Mapping::Mapping(std::size_t task_count, std::size_t core_count)
    : core_of_(task_count, k_unassigned), core_count_(core_count) {
    if (core_count_ == 0) throw std::invalid_argument("Mapping: need at least one core");
}

void Mapping::assign(TaskId task, CoreId core) {
    check_task(task);
    if (core >= core_count_) throw std::out_of_range("Mapping: core id out of range");
    if (core_of_[task] == k_unassigned) ++assigned_count_;
    core_of_[task] = core;
}

bool Mapping::is_assigned(TaskId task) const {
    check_task(task);
    return core_of_[task] != k_unassigned;
}

CoreId Mapping::core_of(TaskId task) const {
    check_task(task);
    if (core_of_[task] == k_unassigned)
        throw std::logic_error("Mapping: task " + std::to_string(task) + " is unassigned");
    return core_of_[task];
}

bool Mapping::complete() const { return assigned_count_ == core_of_.size(); }

std::vector<TaskId> Mapping::tasks_on(CoreId core) const {
    std::vector<TaskId> out;
    for (TaskId t = 0; t < core_of_.size(); ++t)
        if (core_of_[t] == core) out.push_back(t);
    return out;
}

std::size_t Mapping::task_count_on(CoreId core) const {
    std::size_t n = 0;
    for (CoreId c : core_of_)
        if (c == core) ++n;
    return n;
}

std::size_t Mapping::used_core_count() const {
    std::vector<bool> used(core_count_, false);
    for (CoreId c : core_of_)
        if (c != k_unassigned) used[c] = true;
    std::size_t n = 0;
    for (bool u : used)
        if (u) ++n;
    return n;
}

void Mapping::check_task(TaskId task) const {
    if (task >= core_of_.size()) throw std::out_of_range("Mapping: task id out of range");
}

Mapping round_robin_mapping(const TaskGraph& graph, std::size_t core_count) {
    Mapping mapping(graph.task_count(), core_count);
    const auto order = graph.topological_order();
    for (std::size_t i = 0; i < order.size(); ++i)
        mapping.assign(order[i], static_cast<CoreId>(i % core_count));
    return mapping;
}

Mapping single_core_mapping(const TaskGraph& graph, std::size_t core_count) {
    Mapping mapping(graph.task_count(), core_count);
    for (TaskId t = 0; t < graph.task_count(); ++t) mapping.assign(t, 0);
    return mapping;
}

} // namespace seamap
