// Ablation: does stage 1 (InitialSEAMapping, Fig. 6) earn its keep?
// Runs the stage-2 search from (a) the greedy SEU-aware construction
// and (b) a blind round-robin start, at equal total search budgets,
// and compares the Gamma of the best feasible design found. Swept over
// workloads and budgets.
#include "bench_common.h"
#include "core/initial_mapping.h"
#include "core/search_strategy.h"
#include "util/table.h"

#include "taskgraph/mpeg2.h"
#include "tgff/random_graph.h"
#include "util/stats.h"
#include "util/strings.h"

#include <iostream>

using namespace seamap;
using namespace seamap::bench;

namespace {

struct Outcome {
    bool feasible = false;
    double gamma = 0.0;
};

Outcome search_from(const EvaluationContext& ctx, bool use_greedy, std::uint64_t iterations,
                    std::uint64_t seed) {
    LocalSearchParams params;
    params.max_iterations = iterations;
    params.seed = seed;
    const Mapping start = use_greedy
                              ? initial_sea_mapping(ctx)
                              : round_robin_mapping(ctx.graph, ctx.arch.core_count());
    const LocalSearchResult result =
        OptimizedMappingStrategy(params).search(ctx, start, params.seed);
    return {result.found_feasible, result.best_metrics.gamma};
}

} // namespace

int main(int argc, char** argv) {
    const std::uint64_t seed = argc > 1 ? parse_u64(argv[1]) : 3;

    std::vector<std::pair<std::string, TaskGraph>> apps;
    apps.emplace_back("MPEG-2/4c", mpeg2_decoder_graph());
    for (const std::size_t n : {20u, 60u}) {
        TgffParams params;
        params.task_count = n;
        apps.emplace_back(std::to_string(n) + " tasks/4c",
                          generate_tgff_graph(params, seed));
    }

    std::cout << "# Ablation: greedy stage-1 seed vs round-robin seed for the Fig. 7 search\n\n";
    TableWriter table({"workload", "budget", "Gamma (greedy seed)", "Gamma (rr seed)",
                       "greedy advantage"});
    RunningStats advantage;
    for (const auto& [name, graph] : apps) {
        const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
        const ScalingVector levels(4, 2);
        // Deadline with fixed headroom over this scaling's lower bound,
        // so every workload has a feasible region to search.
        const double deadline = 1.3 * tm_lower_bound_seconds(graph, arch, levels);
        const EvaluationContext ctx{graph, arch, levels, SeuEstimator{SerModel{}}, deadline};
        for (const std::uint64_t budget : {250ULL, 1'000ULL, 4'000ULL}) {
            const Outcome greedy = search_from(ctx, true, budget, seed);
            const Outcome blind = search_from(ctx, false, budget, seed);
            std::string delta = "-";
            if (greedy.feasible && blind.feasible) {
                const double percent = percent_change(greedy.gamma, blind.gamma);
                advantage.add(percent);
                delta = fmt_percent(percent, 1);
            }
            table.add_row({name, std::to_string(budget),
                           greedy.feasible ? fmt_sci(greedy.gamma, 3) : "infeasible",
                           blind.feasible ? fmt_sci(blind.gamma, 3) : "infeasible", delta});
        }
    }
    table.print_text(std::cout);
    std::cout << "\n# negative advantage = greedy seed reaches lower Gamma at equal budget\n";
    std::cout << "# mean advantage: " << fmt_percent(advantage.mean(), 1) << " over "
              << advantage.count() << " configurations\n";
    return 0;
}
