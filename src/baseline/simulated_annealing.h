// Simulated-annealing task mapper — the soft-error-unaware baseline the
// paper compares against (Orsila et al. [13], "automated memory-aware
// application distribution"): move/swap neighbourhood over complete
// mappings, geometric cooling, relative-cost acceptance and a deadline
// penalty. Objectives are pluggable so one engine serves Exp:1-3 (and
// an SA-on-Gamma ablation).
#pragma once

#include "baseline/objectives.h"
#include "core/eval_context.h"
#include "core/optimized_mapping.h"
#include "reliability/design_eval.h"
#include "sched/mapping.h"
#include "util/cancellation.h"

namespace seamap {

/// One annealing engine; stateless apart from its parameters, of which
/// it ignores sweep_interval and restarts.
class SimulatedAnnealingMapper {
public:
    explicit SimulatedAnnealingMapper(LocalSearchParams params);

    /// Anneal from `initial` (must be complete). The best *feasible*
    /// design seen is returned; if none is feasible, the design with
    /// the smallest deadline violation. An optional `cancel` token is
    /// checked once per iteration and stops the walk early. Builds a
    /// fresh EvalContext internally (fast path, default EvalOptions).
    LocalSearchResult optimize(const EvaluationContext& ctx, MappingObjective objective,
                               const Mapping& initial,
                               const CancellationToken* cancel = nullptr) const;

    /// Anneal on a caller-provided evaluation context (per-scaling
    /// scratch + memo reuse; tests/benches select the naive-reference
    /// path through it). The walk is a pure function of
    /// (ctx, objective, initial, seed) for every EvalOptions choice.
    LocalSearchResult optimize(EvalContext& eval, MappingObjective objective,
                               const Mapping& initial,
                               const CancellationToken* cancel = nullptr) const;

private:
    LocalSearchParams params_;
};

} // namespace seamap
