// Reproduces Table III of the paper: power consumption and SEUs
// experienced by the proposed optimization (Exp:4) across architecture
// allocations of 2..6 cores, for the MPEG-2 decoder and random task
// graphs of 20..100 tasks.
//
// Expected shape (paper): the minimum-power core count is application
// dependent (4 cores for the MPEG-2 decoder), and the SEUs experienced
// grow with the core count — more cores enable deeper voltage scaling
// and duplicate more shared registers.
//
// Deadlines: the paper's absolute deadlines are tied to its SystemC
// timing; we normalize per workload (1.25x the two-core nominal-speed
// capacity) so the constraint binds identically on our substrate —
// see ROADMAP.md item 13.
#include "bench_common.h"
#include "util/table.h"

#include "taskgraph/mpeg2.h"
#include "tgff/random_graph.h"
#include "util/strings.h"

#include <iostream>
#include <map>

using namespace seamap;
using namespace seamap::bench;

int main(int argc, char** argv) {
    BenchBudget budget;
    budget.mapping_iterations = argc > 1 ? parse_u64(argv[1]) : 2'500;
    budget.seed = argc > 2 ? parse_u64(argv[2]) : 7;
    const std::size_t max_cores = argc > 3 ? parse_u64(argv[3]) : 6;

    // Workload set: MPEG-2 plus the paper's random-graph sizes.
    std::vector<std::pair<std::string, TaskGraph>> apps;
    apps.emplace_back("MPEG-2", mpeg2_decoder_graph());
    for (const std::size_t n : {20u, 40u, 60u, 80u, 100u}) {
        TgffParams params;
        params.task_count = n;
        apps.emplace_back(std::to_string(n) + " tasks", generate_tgff_graph(params, budget.seed));
    }

    std::cout << "# Table III: P (mW) and Gamma for Exp:4 across 2.." << max_cores
              << " cores (seed " << budget.seed << ")\n\n";
    std::vector<std::string> headers = {"App."};
    for (std::size_t cores = 2; cores <= max_cores; ++cores) {
        headers.push_back(std::to_string(cores) + "c P");
        headers.push_back(std::to_string(cores) + "c Gamma");
    }
    TableWriter table(headers);

    std::map<std::string, std::vector<double>> gamma_series;
    std::map<std::string, std::vector<double>> power_series;
    for (const auto& [name, graph] : apps) {
        const double deadline = sweep_deadline_seconds(graph);
        std::vector<std::string> row = {name};
        for (std::size_t cores = 2; cores <= max_cores; ++cores) {
            const MpsocArchitecture arch(cores, VoltageScalingTable::arm7_three_level());
            const auto design =
                run_experiment(graph, arch, deadline, Experiment::exp4_proposed, budget);
            if (!design) {
                row.push_back("-");
                row.push_back("-");
                continue;
            }
            row.push_back(fmt_double(design->metrics.power_mw, 2));
            row.push_back(fmt_sci(design->metrics.gamma, 2));
            gamma_series[name].push_back(design->metrics.gamma);
            power_series[name].push_back(design->metrics.power_mw);
        }
        table.add_row(std::move(row));
    }
    table.print_text(std::cout);

    std::cout << "\n# ---- paper-vs-measured shape summary ----\n";
    for (const auto& [name, gammas] : gamma_series) {
        if (gammas.size() < 2) continue;
        std::size_t rises = 0;
        for (std::size_t i = 1; i < gammas.size(); ++i)
            if (gammas[i] > gammas[i - 1]) ++rises;
        const auto& powers = power_series[name];
        std::size_t cheapest_index = 0;
        for (std::size_t i = 1; i < powers.size(); ++i)
            if (powers[i] < powers[cheapest_index]) cheapest_index = i;
        std::cout << "# " << name << ": Gamma rises on " << rises << "/" << gammas.size() - 1
                  << " core-count steps (paper: monotone rise); min-P core count = "
                  << cheapest_index + 2 << " (paper: app-dependent middle)\n";
    }
    std::cout << "# paper reference rows (P mW / Gamma x1e5):\n"
                 "#   MPEG-2: 9.1/2.13  5.9/3.17  4.25/3.93  6.34/4.95  7.24/5.36\n"
                 "#   60 tasks: 7.8/1.87  4.13/3.25  5.1/4.82  4.9/5.74  5.3/7.15\n";
    return 0;
}
