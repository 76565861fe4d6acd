// Register-usage model, eq. (8) of the paper: the register usage R_i of
// core i is the total width of the *union* of the register sets of the
// tasks mapped there — registers shared by co-located tasks count once,
// while tasks split across cores duplicate their shared registers on
// every core involved.
#pragma once

#include "sched/mapping.h"
#include "taskgraph/task_graph.h"

#include <cstdint>
#include <vector>

namespace seamap {

/// R_i in bits for every core (eq. 8). Unassigned tasks contribute
/// nothing; cores without tasks have R_i = 0.
std::vector<std::uint64_t> per_core_register_bits(const TaskGraph& graph, const Mapping& mapping,
                                                  std::size_t core_count);

/// Total register usage R = sum_i R_i in bits.
std::uint64_t total_register_bits(const TaskGraph& graph, const Mapping& mapping,
                                  std::size_t core_count);

} // namespace seamap
