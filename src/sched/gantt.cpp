#include "sched/gantt.h"

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

namespace seamap {

void write_gantt(std::ostream& os, const TaskGraph& graph, const Schedule& schedule,
                 std::size_t width) {
    if (schedule.entries.empty() || width == 0) return;
    const double horizon = schedule.latency_seconds;
    if (horizon <= 0.0) return;

    std::size_t cores = 0;
    for (const auto& entry : schedule.entries)
        cores = std::max<std::size_t>(cores, entry.core + 1);

    std::vector<std::string> rows(cores, std::string(width, '.'));
    for (const auto& entry : schedule.entries) {
        const auto begin = static_cast<std::size_t>(entry.start_seconds / horizon *
                                                    static_cast<double>(width));
        auto end = static_cast<std::size_t>(entry.finish_seconds / horizon *
                                            static_cast<double>(width));
        end = std::min(end, width);
        const char mark = graph.task(entry.task).name.empty()
                              ? '#'
                              : graph.task(entry.task).name.front();
        for (std::size_t i = begin; i < std::max(end, begin + 1) && i < width; ++i)
            rows[entry.core][i] = mark;
    }
    os << "one-iteration schedule, horizon " << horizon << " s\n";
    for (std::size_t c = 0; c < cores; ++c) os << "core " << c << " |" << rows[c] << "|\n";
}

} // namespace seamap
