#include "taskgraph/dot.h"

#include <array>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace seamap {

namespace {

// Pastel palette; cores beyond the palette wrap around.
constexpr std::array<const char*, 8> k_core_colors = {
    "#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f",
    "#cab2d6", "#ffff99", "#1f78b4", "#33a02c",
};

/// DOT double-quoted string escaping: backslash and quote are escaped,
/// and literal line breaks become the \n / \r label escapes so names
/// with newlines still produce one valid quoted string.
std::string escape(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        default: out += c;
        }
    }
    return out;
}

} // namespace

void write_dot_mapped(std::ostream& os, const TaskGraph& graph,
                      std::span<const std::uint32_t> core_of) {
    if (core_of.size() != graph.task_count())
        throw std::invalid_argument("write_dot_mapped: core_of size must equal task count");
    os << "digraph \"" << escape(graph.name()) << "\" {\n";
    os << "  rankdir=TB;\n";
    os << "  node [shape=box, style=\"rounded,filled\", fillcolor=\"#f0f0f0\"];\n";
    for (TaskId id = 0; id < graph.task_count(); ++id) {
        const Task& task = graph.task(id);
        const char* color = k_core_colors[core_of[id] % k_core_colors.size()];
        os << "  t" << id << " [label=\"" << escape(task.name) << "\\ncore " << core_of[id]
           << "\", fillcolor=\"" << color << "\"];\n";
    }
    for (const Edge& edge : graph.edges())
        os << "  t" << edge.src << " -> t" << edge.dst << " [label=\"" << edge.comm_cycles
           << "\"];\n";
    os << "}\n";
}

} // namespace seamap
