// Ablation: register exposure semantics. The reproduction's default is
// full_duration (register banks hold live state for the entire run —
// the only reading under which the paper's Section III observations
// cohere); busy_only is eq. (7) taken literally. This bench shows how
// the choice changes (a) the Gamma landscape over mappings and (b) the
// design the optimizer picks.
#include "bench_common.h"
#include "util/table.h"

#include "core/dse.h"
#include "core/search_strategy.h"
#include "taskgraph/mpeg2.h"
#include "util/rng.h"
#include "util/strings.h"

#include <algorithm>
#include <iostream>

using namespace seamap;
using namespace seamap::bench;

int main(int argc, char** argv) {
    const std::uint64_t seed = argc > 1 ? parse_u64(argv[1]) : 13;

    const TaskGraph graph = mpeg2_decoder_graph();
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const ScalingVector levels(4, 1);
    Rng rng(seed);

    // (a) Landscape: correlation between the two policies' Gamma over
    // random mappings, and where each policy's minimum sits.
    std::cout << "# Ablation: exposure policy (full_duration vs busy_only), MPEG-2, 4 cores\n\n";
    const std::size_t samples = 150;
    std::vector<double> full_values, busy_values, tm_values;
    for (std::size_t i = 0; i < samples; ++i) {
        Mapping mapping(graph.task_count(), 4);
        for (TaskId t = 0; t < graph.task_count(); ++t)
            mapping.assign(t, static_cast<CoreId>(rng.uniform_int(0, 3)));
        const Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, levels);
        const SeuEstimator full{SerModel{}, ExposurePolicy::full_duration};
        const SeuEstimator busy{SerModel{}, ExposurePolicy::busy_only};
        full_values.push_back(full.estimate(graph, mapping, arch, levels, schedule).total);
        busy_values.push_back(busy.estimate(graph, mapping, arch, levels, schedule).total);
        tm_values.push_back(schedule.total_time_seconds);
    }
    const std::size_t full_min =
        static_cast<std::size_t>(std::min_element(full_values.begin(), full_values.end()) -
                                 full_values.begin());
    const std::size_t busy_min =
        static_cast<std::size_t>(std::min_element(busy_values.begin(), busy_values.end()) -
                                 busy_values.begin());
    const auto tm_extremes = std::minmax_element(tm_values.begin(), tm_values.end());
    std::cout << "min-Gamma T_M under full_duration: " << fmt_double(tm_values[full_min], 2)
              << " s (range " << fmt_double(*tm_extremes.first, 2) << " .. "
              << fmt_double(*tm_extremes.second, 2) << " s)\n";
    std::cout << "min-Gamma T_M under busy_only    : " << fmt_double(tm_values[busy_min], 2)
              << " s\n";
    std::cout << "# full_duration penalizes long T_M (interior optimum — the paper's\n"
                 "# concave Fig. 3b); busy_only rewards maximal spreading.\n\n";

    // (b) What each policy makes the DSE choose.
    TableWriter table({"policy", "levels", "P (mW)", "Gamma (own)", "Gamma (full_duration)"});
    for (const auto policy : {ExposurePolicy::full_duration, ExposurePolicy::busy_only}) {
        DseParams params;
        params.search.max_iterations = 3'000;
        params.search.seed = seed;
        const DesignSpaceExplorer explorer{SerModel{}, policy};
        const DseResult result = explorer.explore(graph, arch, mpeg2_deadline_seconds(), params,
                                                  OptimizedMappingStrategy(params.search));
        if (!result.best) continue;
        // Re-score the chosen design under the reference policy.
        const EvaluationContext reference{graph, arch, result.best->levels,
                                          SeuEstimator{SerModel{}, ExposurePolicy::full_duration},
                                          mpeg2_deadline_seconds()};
        const DesignMetrics rescored = evaluate_design(reference, result.best->mapping);
        table.add_row({policy == ExposurePolicy::full_duration ? "full_duration" : "busy_only",
                       levels_to_string(result.best->levels),
                       fmt_double(result.best->metrics.power_mw, 2),
                       fmt_sci(result.best->metrics.gamma, 3), fmt_sci(rescored.gamma, 3)});
    }
    table.print_text(std::cout);
    std::cout << "\n# last column: optimizing under the wrong exposure model leaves SEUs\n"
                 "# on the table when scored under the reference (full_duration) model.\n";
    return 0;
}
