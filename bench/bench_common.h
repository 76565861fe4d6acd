// Shared plumbing for the paper-experiment benches: per-objective
// design-space exploration (the paper's Exp:1-3 baselines use the same
// Fig. 4 power-minimization loop as the proposed Exp:4, differing only
// in the mapping engine/objective), deadline normalization, and small
// formatting helpers.
#pragma once

#include "arch/mpsoc.h"
#include "arch/scaling_enumerator.h"
#include "core/dse.h"
#include "core/optimized_mapping.h"
#include "reliability/design_eval.h"
#include "sched/mapping.h"
#include "taskgraph/task_graph.h"

#include <optional>
#include <string>

namespace seamap::bench {

/// The four experiments of Table II.
enum class Experiment {
    exp1_register_usage,
    exp2_parallelism,
    exp3_time_register_product,
    exp4_proposed,
};

inline const char* experiment_label(Experiment e) {
    switch (e) {
    case Experiment::exp1_register_usage: return "Exp:1 (reg. usage)";
    case Experiment::exp2_parallelism: return "Exp:2 (parallelism)";
    case Experiment::exp3_time_register_product: return "Exp:3 (reg&paral.)";
    case Experiment::exp4_proposed: return "Exp:4 (proposed)";
    }
    return "?";
}

/// Search effort knobs shared by all benches.
struct BenchBudget {
    std::uint64_t mapping_iterations = 4'000;
    std::uint64_t seed = 1;
};

/// One experiment's chosen design.
struct ExperimentDesign {
    ScalingVector levels;
    Mapping mapping;
    DesignMetrics metrics;
};

/// Optimize a mapping at a fixed scaling with the experiment's engine:
/// simulated annealing on the baseline objectives, the two-stage
/// proposed mapper for Exp:4.
std::optional<ExperimentDesign> optimize_at_scaling(const EvaluationContext& ctx,
                                                    Experiment experiment,
                                                    const BenchBudget& budget);

/// The full Fig. 4 loop for one experiment: enumerate scalings from the
/// lowest voltage, map with the experiment's engine, keep the
/// minimum-power feasible design (Gamma tie-break).
std::optional<ExperimentDesign> run_experiment(const TaskGraph& graph,
                                               const MpsocArchitecture& arch,
                                               double deadline_seconds, Experiment experiment,
                                               const BenchBudget& budget);

/// Deadline normalization for core-count sweeps (Table III, Fig. 10,
/// Fig. 11): 1.25x the two-core nominal-speed capacity. This makes the
/// real-time constraint *bind* the way the paper's does — two cores are
/// forced near nominal voltage while six cores reach the deepest
/// scaling — independent of our simulator's absolute speed.
double sweep_deadline_seconds(const TaskGraph& graph);

/// "2,2,3,2"-style rendering of a scaling vector.
std::string levels_to_string(const ScalingVector& levels);

/// "t1 t2 t3" task list of one core (1-based names like the paper).
std::string core_tasks_to_string(const TaskGraph& graph, const Mapping& mapping, CoreId core);

} // namespace seamap::bench
