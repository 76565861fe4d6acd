// Mapping objectives of the paper's four experiments (Table II):
//   Exp:1  minimize register usage R            (memory-aware [13])
//   Exp:2  minimize execution time T_M          (parallelism [13])
//   Exp:3  minimize the product T_M * R         (joint [13])
//   Exp:4  minimize the SEUs experienced Gamma  (proposed)
// All four consume the shared DesignMetrics, so baselines and the
// proposed optimizer are scored identically.
#pragma once

#include "reliability/design_eval.h"

namespace seamap {

enum class MappingObjective {
    register_usage,
    makespan,
    time_register_product,
    seu_count,
};

/// Scalar cost (lower is better) of a design under an objective.
double objective_value(MappingObjective objective, const DesignMetrics& metrics);

} // namespace seamap
