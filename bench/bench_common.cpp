#include "bench_common.h"
#include "baseline/simulated_annealing.h"
#include "core/initial_mapping.h"
#include "core/optimized_mapping.h"
#include "core/search_strategy.h"

#include "support/scaling_walker.h"
#include "util/rng.h"

namespace seamap::bench {

std::optional<ExperimentDesign> optimize_at_scaling(const EvaluationContext& ctx,
                                                    Experiment experiment,
                                                    const BenchBudget& budget) {
    if (experiment == Experiment::exp4_proposed) {
        LocalSearchParams params;
        params.max_iterations = budget.mapping_iterations;
        params.require_all_cores = true; // paper designs populate every core
        params.seed = budget.seed;
        const LocalSearchResult result = OptimizedMappingStrategy(params).search(
            ctx, initial_sea_mapping(ctx), params.seed);
        if (!result.found_feasible) return std::nullopt;
        return ExperimentDesign{ctx.levels, result.best_mapping, result.best_metrics};
    }
    MappingObjective objective = MappingObjective::register_usage;
    if (experiment == Experiment::exp2_parallelism) objective = MappingObjective::makespan;
    if (experiment == Experiment::exp3_time_register_product)
        objective = MappingObjective::time_register_product;
    LocalSearchParams params;
    params.max_iterations = budget.mapping_iterations;
    params.require_all_cores = true; // paper designs populate every core
    params.seed = budget.seed;
    const LocalSearchResult result = AnnealingStrategy(params, objective).search(
        ctx, round_robin_mapping(ctx.graph, ctx.arch.core_count()), params.seed);
    if (!result.found_feasible) return std::nullopt;
    return ExperimentDesign{ctx.levels, result.best_mapping, result.best_metrics};
}

std::optional<ExperimentDesign> run_experiment(const TaskGraph& graph,
                                               const MpsocArchitecture& arch,
                                               double deadline_seconds, Experiment experiment,
                                               const BenchBudget& budget) {
    std::optional<ExperimentDesign> best;
    ScalingEnumerator enumerator(arch.core_count(), arch.scaling_table().level_count());
    while (auto levels = enumerator.next()) {
        if (tm_lower_bound_seconds(graph, arch, *levels) >
            deadline_seconds * (1.0 + 1e-9))
            continue;
        EvaluationContext ctx{graph, arch, *levels, SeuEstimator{SerModel{}},
                              deadline_seconds};
        // Decorrelate the per-scaling searches.
        BenchBudget scaled = budget;
        std::uint64_t hash = 0x9e3779b97f4a7c15ULL;
        for (ScalingLevel level : *levels) hash = splitmix64(hash ^ level);
        scaled.seed = splitmix64(budget.seed ^ hash);
        const auto design = optimize_at_scaling(ctx, experiment, scaled);
        if (!design) continue;
        const bool better =
            !best || design->metrics.power_mw < best->metrics.power_mw * (1.0 - 5e-3) ||
            (design->metrics.power_mw <= best->metrics.power_mw * (1.0 + 5e-3) &&
             design->metrics.gamma < best->metrics.gamma);
        if (better) best = design;
    }
    return best;
}

double sweep_deadline_seconds(const TaskGraph& graph) {
    // 1.3x the mapping-independent two-core nominal-speed lower bound
    // (work split and dependency critical path, batch-aware). Tight
    // enough that two cores must run near nominal voltage, loose enough
    // that a two-core design exists even for chain-dominated graphs.
    const MpsocArchitecture two_cores(2, VoltageScalingTable::arm7_three_level());
    return 1.3 * tm_lower_bound_seconds(graph, two_cores, {1, 1});
}

std::string levels_to_string(const ScalingVector& levels) {
    std::string out;
    for (ScalingLevel level : levels) {
        if (!out.empty()) out += ",";
        out += std::to_string(level);
    }
    return out;
}

std::string core_tasks_to_string(const TaskGraph& graph, const Mapping& mapping, CoreId core) {
    std::string out;
    for (TaskId t = 0; t < graph.task_count(); ++t) {
        if (mapping.core_of(t) != core) continue;
        if (!out.empty()) out += " ";
        out += "t";
        out += std::to_string(t + 1);
    }
    return out.empty() ? "-" : out;
}

} // namespace seamap::bench
