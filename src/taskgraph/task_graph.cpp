#include "taskgraph/task_graph.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <stdexcept>

namespace seamap {

TaskGraph::TaskGraph(std::string name, RegisterFile registers)
    : name_(std::move(name)), registers_(std::move(registers)) {}

TaskId TaskGraph::add_task(std::string name, std::uint64_t exec_cycles,
                           std::span<const RegisterId> register_ids) {
    if (exec_cycles == 0)
        throw std::invalid_argument("TaskGraph: task '" + name + "' must have positive cost");
    Task task;
    task.name = std::move(name);
    task.exec_cycles = exec_cycles;
    task.registers = RegisterSet(registers_.size());
    for (RegisterId rid : register_ids) task.registers.set(rid);
    tasks_.push_back(std::move(task));
    out_edges_.emplace_back();
    in_edges_.emplace_back();
    return static_cast<TaskId>(tasks_.size() - 1);
}

void TaskGraph::add_edge(TaskId src, TaskId dst, std::uint64_t comm_cycles) {
    check_task(src);
    check_task(dst);
    if (src == dst) throw std::invalid_argument("TaskGraph: self-loop on task " + tasks_[src].name);
    for (std::size_t idx : out_edges_[src])
        if (edges_[idx].dst == dst)
            throw std::invalid_argument("TaskGraph: duplicate edge " + tasks_[src].name + " -> " +
                                        tasks_[dst].name);
    edges_.push_back(Edge{src, dst, comm_cycles});
    out_edges_[src].push_back(edges_.size() - 1);
    in_edges_[dst].push_back(edges_.size() - 1);
}

void TaskGraph::set_batch_count(std::uint64_t batches) {
    if (batches == 0) throw std::invalid_argument("TaskGraph: batch count must be >= 1");
    batch_count_ = batches;
}

void TaskGraph::validate() const {
    if (tasks_.empty()) throw std::invalid_argument("TaskGraph '" + name_ + "': no tasks");
    (void)topological_order(); // throws on a cycle
}

std::vector<TaskId> TaskGraph::successors(TaskId id) const {
    std::vector<TaskId> out;
    for (std::size_t idx : out_edge_indices(id)) out.push_back(edges_[idx].dst);
    return out;
}

std::vector<TaskId> TaskGraph::source_tasks() const {
    std::vector<TaskId> out;
    for (TaskId id = 0; id < tasks_.size(); ++id)
        if (in_edges_[id].empty()) out.push_back(id);
    return out;
}

std::vector<TaskId> TaskGraph::sink_tasks() const {
    std::vector<TaskId> out;
    for (TaskId id = 0; id < tasks_.size(); ++id)
        if (out_edges_[id].empty()) out.push_back(id);
    return out;
}

std::vector<TaskId> TaskGraph::topological_order() const {
    std::vector<std::size_t> in_degree(tasks_.size());
    for (TaskId id = 0; id < tasks_.size(); ++id) in_degree[id] = in_edges_[id].size();
    // Pop the smallest ready id for a deterministic order.
    std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready(
        std::greater<>{}, source_tasks());
    std::vector<TaskId> order;
    order.reserve(tasks_.size());
    while (!ready.empty()) {
        const TaskId id = ready.top();
        ready.pop();
        order.push_back(id);
        for (std::size_t idx : out_edges_[id]) {
            const TaskId dst = edges_[idx].dst;
            if (--in_degree[dst] == 0) ready.push(dst);
        }
    }
    if (order.size() != tasks_.size())
        throw std::invalid_argument("TaskGraph '" + name_ + "': graph has a cycle");
    return order;
}

std::uint64_t TaskGraph::total_exec_cycles() const {
    std::uint64_t total = 0;
    for (const auto& task : tasks_) total += task.exec_cycles;
    return total;
}

std::uint64_t TaskGraph::total_comm_cycles() const {
    std::uint64_t total = 0;
    for (const auto& edge : edges_) total += edge.comm_cycles;
    return total;
}

std::uint64_t TaskGraph::critical_path_cycles(bool include_comm) const {
    const std::vector<TaskId> order = topological_order();
    std::vector<std::uint64_t> finish(tasks_.size(), 0);
    std::uint64_t best = 0;
    for (TaskId id : order) {
        std::uint64_t start = 0;
        for (std::size_t idx : in_edges_[id]) {
            const Edge& e = edges_[idx];
            const std::uint64_t arrival = finish[e.src] + (include_comm ? e.comm_cycles : 0);
            start = std::max(start, arrival);
        }
        finish[id] = start + tasks_[id].exec_cycles;
        best = std::max(best, finish[id]);
    }
    return best;
}

std::uint64_t TaskGraph::task_register_bits(TaskId id) const {
    return task(id).registers.bits_in(registers_);
}

RegisterSet TaskGraph::union_register_set(std::span<const TaskId> ids) const {
    RegisterSet acc(registers_.size());
    for (TaskId id : ids) acc |= task(id).registers;
    return acc;
}

std::uint64_t TaskGraph::union_register_bits(std::span<const TaskId> ids) const {
    return union_register_set(ids).bits_in(registers_);
}

void TaskGraph::throw_bad_task_id() { throw std::out_of_range("TaskGraph: bad task id"); }

void TaskGraph::throw_bad_edge_index() { throw std::out_of_range("TaskGraph: bad edge index"); }

} // namespace seamap
