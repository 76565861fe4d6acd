// Text rendering of schedules: a per-core Gantt chart for terminals,
// over the single-iteration schedule.
#pragma once

#include "sched/list_scheduler.h"
#include "taskgraph/task_graph.h"

#include <cstddef>
#include <iosfwd>

namespace seamap {

/// Render an ASCII Gantt chart, one row per core, `width` characters of
/// timeline. Tasks are labelled by the first letters of their names.
void write_gantt(std::ostream& os, const TaskGraph& graph, const Schedule& schedule,
                 std::size_t width = 72);

} // namespace seamap
