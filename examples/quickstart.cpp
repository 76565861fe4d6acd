// Quickstart: the public API (seamap/seamap.h) on one page.
//
// Reproduces the paper's Fig. 8 worked example: a six-task application
// mapped onto three cores running at voltage scalings (1, 2, 2) with a
// 75 ms deadline. Shows the problem description (ProblemBuilder), the
// two-stage soft error-aware mapping (greedy construction + a built-in
// search strategy picked by name), the resulting schedule as a Gantt
// chart, and a fault-injection measurement of the final design.
//
// Usage: quickstart [seed]
#include "seamap/seamap.h"

#include "core/initial_mapping.h"
#include "sched/gantt.h"
#include "sim/campaign.h"
#include "taskgraph/fig8.h"
#include "util/strings.h"
#include "util/table.h"

#include <iostream>

using namespace seamap;

int main(int argc, char** argv) {
    const std::uint64_t seed = argc > 1 ? parse_u64(argv[1]) : 8;

    // 1. The problem: Fig. 8's six-task graph with its published
    //    register table, on three ARM7-class cores with the Table I
    //    scaling options, under the 75 ms real-time constraint. The SER
    //    model defaults reproduce the paper; build() validates.
    const Problem problem = ProblemBuilder()
                                .graph(fig8_example_graph())
                                .architecture(3, VoltageScalingTable::arm7_three_level())
                                .deadline_seconds(k_fig8_deadline_seconds)
                                .build();
    const TaskGraph& graph = problem.graph();
    std::cout << "application: " << graph.name() << " (" << graph.task_count() << " tasks, "
              << graph.edge_count() << " edges)\n";

    // 2. The example fixes the voltage scalings at (1, 2, 2); the
    //    evaluation context scores candidate mappings under them.
    const ScalingVector levels = {1, 2, 2};
    const EvaluationContext ctx = problem.evaluation_context(levels);

    // 3. Stage 1 — greedy soft error-aware construction (Fig. 6).
    const Mapping initial = initial_sea_mapping(ctx);
    const DesignMetrics initial_metrics = evaluate_design(ctx, initial);
    std::cout << "\nstage 1 (InitialSEAMapping): T_M = " << initial_metrics.tm_seconds * 1e3
              << " ms, Gamma = " << initial_metrics.gamma
              << (initial_metrics.feasible ? "  [meets deadline]" : "  [misses deadline]")
              << '\n';

    // 4. Stage 2 — the Fig. 7 local search, built by name
    //    ("annealing" would drop in the SA baseline instead).
    const auto strategy = make_search_strategy("optimized", {.max_iterations = 4'000});
    const LocalSearchResult result = strategy->search(ctx, initial, seed);
    if (!result.found_feasible) {
        std::cerr << "no feasible mapping found — loosen the deadline\n";
        return 1;
    }

    Schedule schedule;
    const DesignMetrics metrics = evaluate_design(ctx, result.best_mapping, schedule);
    const MpsocArchitecture& arch = problem.architecture();
    TableWriter table({"core", "scaling", "f (MHz)", "Vdd (V)", "tasks", "busy (ms)"});
    for (std::size_t c = 0; c < arch.core_count(); ++c) {
        std::vector<std::string> names;
        for (TaskId t : result.best_mapping.tasks_on(static_cast<CoreId>(c)))
            names.push_back(graph.task(t).name);
        table.add_row({std::to_string(c), std::to_string(levels[c]),
                       fmt_double(arch.scaling_table().frequency_mhz(levels[c]), 1),
                       fmt_double(arch.scaling_table().vdd(levels[c]), 2), join(names, " "),
                       fmt_double(schedule.core_busy_seconds[c] * 1e3, 1)});
    }
    std::cout << "\nstage 2 (" << strategy->name() << " strategy) after "
              << result.iterations_run << " iterations:\n\n";
    table.print_text(std::cout);
    std::cout << "\nT_M = " << metrics.tm_seconds * 1e3 << " ms (deadline "
              << k_fig8_deadline_seconds * 1e3 << " ms), Gamma = " << metrics.gamma
              << ", P = " << fmt_double(metrics.power_mw, 2) << " mW, R = "
              << fmt_double(static_cast<double>(metrics.register_bits) / 1000.0, 1)
              << " kbit\n\n";
    write_gantt(std::cout, graph, schedule);

    // 5. Measure the design with a Poisson SEU fault-injection campaign
    //    on the register file, the exposure eq. (3) models.
    CampaignConfig config;
    config.trials = 200;
    config.seed = seed;
    config.weights = FaultSiteWeights::register_file_only();
    const CampaignReport campaign = CampaignEngine(problem.ser_model(), config)
                                        .run(graph, result.best_mapping, arch, levels, schedule);
    std::cout << "\nfault injection (200 trials): mean " << campaign.total_stats.mean()
              << " SEUs (+/- " << fmt_double(campaign.total_stats.ci95_halfwidth(), 3)
              << " @95%), analytic Gamma " << campaign.analytic_gamma << '\n';

    // 6. The same design, machine-readable.
    std::cout << "\nmetrics as JSON: " << to_json(metrics).dump() << '\n';
    return 0;
}
