#include "taskgraph/fig8.h"

#include <array>

namespace seamap {

// Fig. 8(b) register table and Fig. 8(c) task register usage are
// published verbatim:
//   r1 4096, r2 2048, r3 2048, r4 5120, r5 4096, r6 2048, r7 2048,
//   r8 4096, r9 2048
//   t1 = [r1, r2, r3]      t2 = [r2, r4, r5, r6]   t3 = [r4, r5, r6]
//   t4 = [r5, r6, r7]      t5 = [r6, r7, r8]       t6 = [r7, r8, r9]
// The edge endpoints in the figure scan are partially garbled; the
// reconstruction below keeps the walkthrough intact: t1's dependents
// are {t2, t3}; t3's dependents include {t4, t5}; t6 is the join that
// makes the initial mapping miss the 75 ms deadline until the Fig. 7
// search's task movements repair it (Section IV-B). With the
// example's (1, 2, 2) scalings, the repaired design meets the 75 ms
// deadline exactly. Edge costs use the figure's small multiples
// {1, 2, 2, 2, 3, 1, 1}.
TaskGraph fig8_example_graph() {
    RegisterFile regs;
    const std::array<std::uint64_t, 9> widths = {4096, 2048, 2048, 5120, 4096, 2048, 2048, 4096,
                                                 2048};
    std::array<RegisterId, 9> r{};
    for (std::size_t i = 0; i < widths.size(); ++i) {
        std::string reg_name = "r";
        reg_name += std::to_string(i + 1);
        r[i] = regs.add_register(std::move(reg_name), widths[i]);
    }

    TaskGraph graph("fig8_example", std::move(regs));

    const auto u = k_fig8_cost_unit;
    const TaskId t1 = graph.add_task("t1", 5 * u, std::array{r[0], r[1], r[2]});
    const TaskId t2 = graph.add_task("t2", 4 * u, std::array{r[1], r[3], r[4], r[5]});
    const TaskId t3 = graph.add_task("t3", 4 * u, std::array{r[3], r[4], r[5]});
    const TaskId t4 = graph.add_task("t4", 5 * u, std::array{r[4], r[5], r[6]});
    const TaskId t5 = graph.add_task("t5", 6 * u, std::array{r[5], r[6], r[7]});
    const TaskId t6 = graph.add_task("t6", 4 * u, std::array{r[6], r[7], r[8]});

    graph.add_edge(t1, t2, 1 * u);
    graph.add_edge(t1, t3, 2 * u);
    graph.add_edge(t2, t6, 1 * u);
    graph.add_edge(t3, t4, 2 * u);
    graph.add_edge(t3, t5, 2 * u);
    graph.add_edge(t4, t6, 3 * u);
    graph.add_edge(t5, t6, 1 * u);

    graph.validate();
    return graph;
}

} // namespace seamap
