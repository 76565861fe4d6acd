#include "taskgraph/dot.h"

#include "taskgraph/fig8.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace seamap {
namespace {

/// Decode a DOT double-quoted string body: \" -> ", \\ -> \, and the
/// label escapes \n / \r back to line breaks. Returns nullopt on a
/// dangling backslash or an unknown escape — i.e. invalid DOT.
std::optional<std::string> dot_unescape(std::string_view body) {
    std::string out;
    for (std::size_t i = 0; i < body.size(); ++i) {
        if (body[i] != '\\') {
            out += body[i];
            continue;
        }
        if (++i == body.size()) return std::nullopt;
        switch (body[i]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        default: return std::nullopt;
        }
    }
    return out;
}

/// Structural view of a DOT export: quoted strings must lex (no raw
/// quote can terminate one early), and every node's decoded label is
/// collected keyed by its tN id.
struct ParsedDot {
    std::string graph_name;
    std::vector<std::string> node_labels; // index = node id
    std::size_t edge_count = 0;
};

ParsedDot parse_dot(const std::string& dot, std::size_t node_count) {
    ParsedDot parsed;
    parsed.node_labels.resize(node_count);
    std::istringstream lines(dot);
    std::string line;
    // Every quoted string is lexed with DOT's rule (a backslash escapes
    // the next character); the body must then decode cleanly.
    auto quoted_body = [](const std::string& text, std::size_t open) {
        std::size_t i = open + 1;
        bool escaped = false;
        while (i < text.size()) {
            if (escaped)
                escaped = false;
            else if (text[i] == '\\')
                escaped = true;
            else if (text[i] == '"')
                break;
            ++i;
        }
        EXPECT_LT(i, text.size()) << "unterminated quoted string: " << text;
        return text.substr(open + 1, i - open - 1);
    };
    while (std::getline(lines, line)) {
        if (line.rfind("digraph ", 0) == 0) {
            const auto body = dot_unescape(quoted_body(line, line.find('"')));
            EXPECT_TRUE(body.has_value()) << line;
            if (body) parsed.graph_name = *body;
        } else if (line.find("->") != std::string::npos) {
            ++parsed.edge_count;
        } else if (line.rfind("  t", 0) == 0 && line.find("[label=") != std::string::npos) {
            const std::size_t id = std::stoul(line.substr(3));
            EXPECT_LT(id, parsed.node_labels.size());
            const auto label = dot_unescape(quoted_body(line, line.find('"')));
            EXPECT_TRUE(label.has_value()) << line;
            if (id < parsed.node_labels.size() && label) parsed.node_labels[id] = *label;
        }
    }
    return parsed;
}

/// write_dot_mapped into a string, every task on core 0.
std::string dot_on_core0(const TaskGraph& graph) {
    const std::vector<std::uint32_t> core_of(graph.task_count(), 0);
    std::ostringstream os;
    write_dot_mapped(os, graph, core_of);
    return os.str();
}

TEST(Dot, StructuralExportContainsNodesAndEdges) {
    const TaskGraph graph = fig8_example_graph();
    const std::string dot = dot_on_core0(graph);
    EXPECT_NE(dot.find("digraph \"fig8_example\""), std::string::npos);
    for (TaskId t = 0; t < graph.task_count(); ++t) {
        std::ostringstream node;
        node << "t" << t << " [label=\"" << graph.task(t).name;
        EXPECT_NE(dot.find(node.str()), std::string::npos) << "missing node " << t;
    }
    EXPECT_NE(dot.find("t0 -> t1"), std::string::npos);
    EXPECT_NE(dot.find("}"), std::string::npos);
}

TEST(Dot, MappedExportColorsByCore) {
    const TaskGraph graph = fig8_example_graph();
    const std::array<std::uint32_t, 6> cores = {0, 1, 0, 1, 2, 2};
    std::ostringstream os;
    write_dot_mapped(os, graph, cores);
    const std::string dot = os.str();
    EXPECT_NE(dot.find("core 0"), std::string::npos);
    EXPECT_NE(dot.find("core 2"), std::string::npos);
    EXPECT_NE(dot.find("fillcolor"), std::string::npos);
}

TEST(Dot, Fig8BytesPinned) {
    // The `seamap_cli optimize --dot` file, byte for byte, for a fixed
    // Fig. 8 mapping.
    const TaskGraph graph = fig8_example_graph();
    const std::array<std::uint32_t, 6> cores = {0, 1, 0, 1, 2, 2};
    std::ostringstream os;
    write_dot_mapped(os, graph, cores);
    EXPECT_EQ(os.str(),
              "digraph \"fig8_example\" {\n"
              "  rankdir=TB;\n"
              "  node [shape=box, style=\"rounded,filled\", fillcolor=\"#f0f0f0\"];\n"
              "  t0 [label=\"t1\\ncore 0\", fillcolor=\"#a6cee3\"];\n"
              "  t1 [label=\"t2\\ncore 1\", fillcolor=\"#b2df8a\"];\n"
              "  t2 [label=\"t3\\ncore 0\", fillcolor=\"#a6cee3\"];\n"
              "  t3 [label=\"t4\\ncore 1\", fillcolor=\"#b2df8a\"];\n"
              "  t4 [label=\"t5\\ncore 2\", fillcolor=\"#fb9a99\"];\n"
              "  t5 [label=\"t6\\ncore 2\", fillcolor=\"#fb9a99\"];\n"
              "  t0 -> t1 [label=\"600000\"];\n"
              "  t0 -> t2 [label=\"1200000\"];\n"
              "  t1 -> t5 [label=\"600000\"];\n"
              "  t2 -> t3 [label=\"1200000\"];\n"
              "  t2 -> t4 [label=\"1200000\"];\n"
              "  t3 -> t5 [label=\"1800000\"];\n"
              "  t4 -> t5 [label=\"600000\"];\n"
              "}\n");
}

TEST(Dot, MappedExportChecksSize) {
    const TaskGraph graph = fig8_example_graph();
    const std::array<std::uint32_t, 2> too_short = {0, 1};
    std::ostringstream os;
    EXPECT_THROW(write_dot_mapped(os, graph, too_short), std::invalid_argument);
}

TEST(Dot, NamesNeedingQuotingRoundTripStructurally) {
    // Names with every character class that can break a DOT quoted
    // string: quotes, backslashes (also trailing), line breaks.
    const std::vector<std::string> names = {
        "he said \"hi\"", "back\\slash", "multi\nline", "trailing\\", "r\rreturn",
    };
    TaskGraph graph("quoted \"name\"\\", RegisterFile{});
    for (std::size_t i = 0; i < names.size(); ++i) graph.add_task(names[i], 100 * (i + 1));
    for (std::size_t i = 0; i + 1 < names.size(); ++i)
        graph.add_edge(static_cast<TaskId>(i), static_cast<TaskId>(i + 1), 10);
    graph.validate();

    const std::string dot = dot_on_core0(graph);
    const ParsedDot parsed = parse_dot(dot, names.size());
    // Structure: balanced braces, one edge line per edge, every node
    // label lexes as a single quoted string and decodes back to the
    // original name (the exporter appends "\ncore <id>").
    EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'), 1);
    EXPECT_EQ(std::count(dot.begin(), dot.end(), '}'), 1);
    EXPECT_EQ(parsed.edge_count, graph.edge_count());
    EXPECT_EQ(parsed.graph_name, graph.name());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string& label = parsed.node_labels[i];
        const std::string suffix = "\ncore 0";
        ASSERT_GE(label.size(), suffix.size()) << label;
        EXPECT_EQ(label.substr(label.size() - suffix.size()), suffix);
        EXPECT_EQ(label.substr(0, label.size() - suffix.size()), names[i]);
    }
}

TEST(Dot, MappedExportEscapesNamesToo) {
    TaskGraph graph("m", RegisterFile{});
    graph.add_task("needs \"quotes\"", 100);
    graph.add_task("plain", 100);
    graph.add_edge(0, 1, 5);
    graph.validate();
    const std::array<std::uint32_t, 2> cores = {0, 1};
    std::ostringstream os;
    write_dot_mapped(os, graph, cores);
    const ParsedDot parsed = parse_dot(os.str(), 2);
    EXPECT_EQ(parsed.node_labels[0], "needs \"quotes\"\ncore 0");
    EXPECT_EQ(parsed.node_labels[1], "plain\ncore 1");
}

} // namespace
} // namespace seamap
