#include "sched/gantt.h"

#include "taskgraph/fig8.h"

#include <gtest/gtest.h>

#include <array>
#include <sstream>

namespace seamap {
namespace {

Schedule make_schedule() {
    const TaskGraph graph = fig8_example_graph();
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
    return ListScheduler{}.schedule(graph, round_robin_mapping(graph, 3), arch, {1, 2, 2});
}

std::string gantt(const TaskGraph& graph, const Schedule& schedule, std::size_t width = 72) {
    std::ostringstream os;
    write_gantt(os, graph, schedule, width);
    return os.str();
}

TEST(Gantt, OneRowPerCore) {
    const TaskGraph graph = fig8_example_graph();
    const std::string out = gantt(graph, make_schedule());
    EXPECT_NE(out.find("core 0 |"), std::string::npos);
    EXPECT_NE(out.find("core 1 |"), std::string::npos);
    EXPECT_NE(out.find("core 2 |"), std::string::npos);
    EXPECT_NE(out.find("horizon"), std::string::npos);
}

TEST(Gantt, TaskMarksAppear) {
    const TaskGraph graph = fig8_example_graph();
    const std::string out = gantt(graph, make_schedule(), 60);
    // Fig-8 task names all start with 't'; the timeline must contain
    // executed spans, not only idle dots.
    EXPECT_NE(out.find('t'), std::string::npos);
    EXPECT_NE(out.find('.'), std::string::npos);
}

TEST(Gantt, EmptyScheduleProducesNothing) {
    const TaskGraph graph = fig8_example_graph();
    Schedule empty;
    std::ostringstream os;
    write_gantt(os, graph, empty);
    EXPECT_TRUE(os.str().empty());
}

TEST(Gantt, Fig8BytesPinned) {
    // The `seamap_cli optimize --gantt` rendering, byte for byte, for a
    // fixed Fig. 8 mapping and that mapping's list schedule.
    const TaskGraph graph = fig8_example_graph();
    const std::array<CoreId, 6> core_of = {0, 1, 0, 1, 2, 2};
    Mapping mapping(graph.task_count(), 3);
    for (TaskId t = 0; t < graph.task_count(); ++t) mapping.assign(t, core_of[t]);
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
    const Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, {1, 2, 2});
    EXPECT_EQ(gantt(graph, schedule),
              "one-iteration schedule, horizon 0.138 s\n"
              "core 0 |ttttttt..tttttt.........................................................|\n"
              "core 1 |..................tttttttttttttttt.........ttttttttttttt................|\n"
              "core 2 |.....................ttttttttttttttttttt...................ttttttttttttt|\n");
}

} // namespace
} // namespace seamap
