// Reproduces Table II and Fig. 9 of the paper.
//
// Table II: four design optimizations of the MPEG-2 decoder on a
// 4-core MPSoC under the 29.97 fps real-time constraint —
//   Exp:1  SA minimizing register usage R        (soft error-unaware)
//   Exp:2  SA minimizing execution time T_M      (soft error-unaware)
//   Exp:3  SA minimizing the product T_M * R     (soft error-unaware)
//   Exp:4  the proposed two-stage SEU-aware mapping
// each embedded in the same Fig. 4 power-minimization loop (iterative
// voltage scaling, minimum-power feasible design).
//
// Fig. 9: the mappings of Exp:1-3 re-evaluated at Exp:4's chosen
// voltage scaling, reported as percent differences in SEUs experienced
// and power relative to Exp:4. Paper headline: Exp:4 experiences ~38%
// fewer SEUs than Exp:2 at ~9% less power, and ~28% fewer than Exp:1
// at ~7% more power.
#include "bench_common.h"
#include "util/table.h"

#include "taskgraph/mpeg2.h"
#include "util/stats.h"
#include "util/strings.h"

#include <iostream>

using namespace seamap;
using namespace seamap::bench;

int main(int argc, char** argv) {
    BenchBudget budget;
    budget.mapping_iterations = argc > 1 ? parse_u64(argv[1]) : 12'000;
    budget.seed = argc > 2 ? parse_u64(argv[2]) : 1;

    const TaskGraph graph = mpeg2_decoder_graph();
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    // Binding deadline (see ROADMAP.md item 13): our substrate executes the
    // published cycle counts faster than the authors' SystemC platform,
    // so the face-value 14.58 s constraint never binds and every design
    // collapses to the slowest scaling. The normalized deadline lands
    // the DSE in the paper's regime (mixed level-2 scalings). Pass a
    // third argument to override (e.g. 14.58).
    const double deadline =
        argc > 3 ? parse_double(argv[3]) : sweep_deadline_seconds(graph);

    std::cout << "# Table II: MPEG-2 decoder, 4 cores, deadline " << fmt_double(deadline, 2)
              << " s, SER 1e-9 (seed " << budget.seed << ")\n\n";

    const Experiment experiments[] = {
        Experiment::exp1_register_usage, Experiment::exp2_parallelism,
        Experiment::exp3_time_register_product, Experiment::exp4_proposed};
    std::vector<std::optional<ExperimentDesign>> designs;
    TableWriter table2({"Exp.", "mapped tasks (per core)", "scal.", "P (mW)", "R (kb/c)",
                        "T_M (s)", "Gamma"});
    for (const Experiment experiment : experiments) {
        auto design = run_experiment(graph, arch, deadline, experiment, budget);
        if (!design) {
            table2.add_row({experiment_label(experiment), "-", "-", "-", "-", "-", "-"});
            designs.push_back(std::nullopt);
            continue;
        }
        std::string cores_text;
        for (CoreId c = 0; c < arch.core_count(); ++c) {
            if (c > 0) cores_text += " | ";
            cores_text += core_tasks_to_string(graph, design->mapping, c);
        }
        table2.add_row({experiment_label(experiment), cores_text,
                        levels_to_string(design->levels),
                        fmt_double(design->metrics.power_mw, 2),
                        fmt_double(static_cast<double>(design->metrics.register_bits) / 1000.0,
                                   0),
                        fmt_double(design->metrics.tm_seconds, 2),
                        fmt_sci(design->metrics.gamma, 3)});
        designs.push_back(std::move(design));
    }
    table2.print_text(std::cout);

    if (!designs[3]) {
        std::cerr << "Exp:4 found no feasible design; cannot produce Fig. 9\n";
        return 1;
    }

    // ---- Fig. 9: all four mappings at Exp:4's chosen scaling -----------
    const ScalingVector& fixed = designs[3]->levels;
    const EvaluationContext ctx{graph, arch, fixed, SeuEstimator{SerModel{}}, deadline};
    const DesignMetrics exp4 = evaluate_design(ctx, designs[3]->mapping);

    std::cout << "\n# Fig. 9: Exp:1-3 vs Exp:4 at fixed scaling (" << levels_to_string(fixed)
              << ")\n";
    TableWriter fig9({"vs Exp:4", "comparative SEUs", "comparative power"});
    const char* labels[] = {"Exp:1", "Exp:2", "Exp:3"};
    double gamma_delta[3] = {0, 0, 0};
    for (std::size_t i = 0; i < 3; ++i) {
        if (!designs[i]) {
            fig9.add_row({labels[i], "-", "-"});
            continue;
        }
        const DesignMetrics at_fixed = evaluate_design(ctx, designs[i]->mapping);
        gamma_delta[i] = percent_change(at_fixed.gamma, exp4.gamma);
        fig9.add_row({labels[i], fmt_percent(gamma_delta[i], 1),
                      fmt_percent(percent_change(at_fixed.power_mw, exp4.power_mw), 1)});
    }
    fig9.print_text(std::cout);

    std::cout << "\n# ---- paper-vs-measured shape summary ----\n";
    std::cout << "# paper: Exp:1 lowest R; Exp:2 lowest T_M / highest R & Gamma; "
                 "Exp:4 Gamma below Exp:2 and Exp:3\n";
    if (designs[0] && designs[1] && designs[2]) {
        const bool exp1_min_r =
            designs[0]->metrics.register_bits <= designs[1]->metrics.register_bits &&
            designs[0]->metrics.register_bits <= designs[2]->metrics.register_bits;
        const bool exp2_min_tm =
            designs[1]->metrics.tm_seconds <= designs[0]->metrics.tm_seconds &&
            designs[1]->metrics.tm_seconds <= designs[2]->metrics.tm_seconds;
        std::cout << "# measured: Exp:1 min R: " << (exp1_min_r ? "yes" : "NO")
                  << " | Exp:2 min T_M: " << (exp2_min_tm ? "yes" : "NO")
                  << " | Fig 9 Gamma deltas (+ = worse than Exp:4): Exp1 "
                  << fmt_percent(gamma_delta[0], 1) << ", Exp2 "
                  << fmt_percent(gamma_delta[1], 1) << ", Exp3 "
                  << fmt_percent(gamma_delta[2], 1) << '\n';
        std::cout << "# paper Fig 9 reference: Exp2 ~ +61% (Exp:4 38% lower), Exp1 ~ +39% "
                     "(Exp:4 28% lower)\n";
    }
    return 0;
}
