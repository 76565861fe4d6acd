// Graphviz DOT export of mapped task graphs (node colour groups tasks
// by core) for documentation and debugging.
#pragma once

#include "taskgraph/task_graph.h"

#include <cstdint>
#include <iosfwd>
#include <span>

namespace seamap {

/// Nodes labelled "name\ncore N" and coloured by that core, edges
/// labelled with communication cost. `core_of` must have one entry per
/// task.
void write_dot_mapped(std::ostream& os, const TaskGraph& graph,
                      std::span<const std::uint32_t> core_of);

} // namespace seamap
