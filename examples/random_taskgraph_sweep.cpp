// Architecture-allocation sweep on synthetic workloads — the
// random-task-graph half of the paper's Table III, as a reusable tool:
// generate TGFF-style graphs of several sizes, explore 2..C_max cores
// each through the public API, and report the power and SEUs of the
// chosen design. The search strategy is selectable by name
// ("optimized" or "annealing"), so the same sweep compares the Fig. 7
// search against the SA baseline.
//
// Usage: random_taskgraph_sweep [max_cores] [seed] [search_iterations] [strategy]
#include "seamap/seamap.h"

#include "tgff/random_graph.h"
#include "util/strings.h"
#include "util/table.h"

#include <iostream>

using namespace seamap;

namespace {

/// Deadline normalization used for random graphs throughout this
/// repository: 1.5x the two-core nominal-speed capacity, which lands
/// the DSE in the paper's regime (2 cores near nominal voltage, 6
/// cores deeply scaled). See ROADMAP.md item 13, the reproduction
/// scorecard.
double normalized_deadline_seconds(const TaskGraph& graph) {
    const double two_core_seconds =
        static_cast<double>(graph.total_exec_cycles()) / (2.0 * 200e6);
    return 1.5 * two_core_seconds;
}

} // namespace

int main(int argc, char** argv) {
    const std::size_t max_cores = argc > 1 ? parse_u64(argv[1]) : 6;
    const std::uint64_t seed = argc > 2 ? parse_u64(argv[2]) : 7;
    const std::uint64_t iterations = argc > 3 ? parse_u64(argv[3]) : 2'000;
    const std::string strategy = argc > 4 ? argv[4] : "optimized";

    ExploreOptions options;
    options.strategy = strategy;
    options.dse.search.max_iterations = iterations;
    options.dse.search.seed = seed;

    TableWriter table({"tasks", "cores", "P (mW)", "Gamma", "T_M (s)", "deadline (s)"});
    for (const std::size_t tasks : {20u, 40u, 60u}) {
        TgffParams tgff;
        tgff.task_count = tasks;
        const TaskGraph graph = generate_tgff_graph(tgff, seed);
        const double deadline = normalized_deadline_seconds(graph);
        for (std::size_t cores = 2; cores <= max_cores; ++cores) {
            const Problem problem =
                ProblemBuilder()
                    .graph(graph)
                    .architecture(cores, VoltageScalingTable::arm7_three_level())
                    .deadline_seconds(deadline)
                    .build();
            const DseResult result = explore(problem, options);
            if (!result.best) {
                table.add_row({std::to_string(tasks), std::to_string(cores), "-", "-", "-",
                               fmt_double(deadline, 2)});
                continue;
            }
            table.add_row({std::to_string(tasks), std::to_string(cores),
                           fmt_double(result.best->metrics.power_mw, 2),
                           fmt_sci(result.best->metrics.gamma, 3),
                           fmt_double(result.best->metrics.tm_seconds, 2),
                           fmt_double(deadline, 2)});
        }
    }
    std::cout << "architecture-allocation sweep (seed " << seed << ", " << iterations
              << " search iterations per scaling, strategy " << strategy << ")\n\n";
    table.print_text(std::cout);
    std::cout << "\nexpected shape (paper Table III): power is minimized at an\n"
                 "application-dependent middle core count, while the SEUs\n"
                 "experienced grow monotonically with the number of cores.\n";
    return 0;
}
