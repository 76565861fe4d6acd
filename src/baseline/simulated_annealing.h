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
#include "core/search_strategy.h"
#include "reliability/design_eval.h"
#include "sched/mapping.h"
#include "util/cancellation.h"

#include <cstdint>
#include <string>

namespace seamap {

/// The simulated-annealing baseline mapper [13] as a search strategy,
/// annealing on any of the Table II objectives (Gamma by default, which
/// makes it a fair soft-error-aware baseline). search() returns the
/// best *feasible* design seen or, if none is feasible, the one with
/// the smallest deadline violation; `cancel` is checked once per
/// iteration. Of the params it ignores sweep_interval, restarts and
/// `seed` — search() uses its seed argument.
class AnnealingStrategy final : public SearchStrategy {
public:
    /// Validates the params eagerly (bad ones throw here, not
    /// mid-exploration on a worker thread).
    explicit AnnealingStrategy(LocalSearchParams params = {},
                               MappingObjective objective = MappingObjective::seu_count);

    std::string name() const override;
    LocalSearchResult search(const EvaluationContext& ctx, const Mapping& initial,
                             std::uint64_t seed,
                             const CancellationToken* cancel = nullptr) const override;
    LocalSearchResult search(EvalContext& eval, const Mapping& initial, std::uint64_t seed,
                             const CancellationToken* cancel = nullptr) const override;

private:
    LocalSearchParams params_;
    MappingObjective objective_;
};

} // namespace seamap
