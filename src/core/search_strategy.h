// The pluggable per-scaling mapping-search contract the explorer
// (core/dse.h) calls, plus core's own strategy, the paper's Fig. 7
// search, whose walk is defined in core/optimized_mapping.cpp.
// Interchangeable engines living above core (the SA baseline of
// baseline/simulated_annealing.h, registered third-party backends)
// implement this same interface; the name-keyed registry that creates
// them by string lives with the public API in api/strategy.h, keeping
// the dependency graph acyclic (core never looks upward).
//
// Determinism contract: search() must be a pure function of
// (ctx, initial, seed) whenever `cancel` never fires. The explorer
// relies on this to stay bit-identical across thread counts.
#pragma once

#include "core/eval_context.h"
#include "core/optimized_mapping.h"
#include "reliability/design_eval.h"
#include "sched/mapping.h"
#include "util/cancellation.h"

#include <cstdint>
#include <string>

namespace seamap {

/// One per-scaling mapping-search engine.
class SearchStrategy {
public:
    virtual ~SearchStrategy();

    /// Registry key ("optimized", "annealing", ...).
    virtual std::string name() const = 0;

    /// Search a mapping for the fixed scaling in `ctx`, starting from
    /// the complete mapping `initial`. `seed` is the per-scaling
    /// derived seed (the explorer varies it per combination so repeated
    /// scalings do not replay the same walk); `cancel`, when non-null,
    /// must be polled so the explorer can stop its workers
    /// cooperatively.
    virtual LocalSearchResult search(const EvaluationContext& ctx, const Mapping& initial,
                                     std::uint64_t seed,
                                     const CancellationToken* cancel = nullptr) const = 0;

    /// Hot-path entry the explorer actually calls: the worker's
    /// EvalContext (core/eval_context.h), rebound to the slot, carries
    /// preallocated scratch, the memo table and the incremental scheduler.
    /// The default forwards to the EvaluationContext overload, so
    /// custom strategies that never heard of EvalContext keep working;
    /// the built-ins override it to run their walks on `eval`
    /// directly. The determinism contract is unchanged: for a given
    /// (problem, initial, seed) the result must be bit-identical
    /// whichever overload runs.
    virtual LocalSearchResult search(EvalContext& eval, const Mapping& initial,
                                     std::uint64_t seed,
                                     const CancellationToken* cancel = nullptr) const;
};

/// The paper's Fig. 7 local search (proposed method). search() returns
/// the best feasible design by Gamma or, if none was found, the design
/// closest to feasibility (smallest T_M); `cancel` is polled inside the
/// walk, so a stop never overshoots by more than one evaluation. The
/// `seed` field of the params is ignored — search() uses its argument.
class OptimizedMappingStrategy final : public SearchStrategy {
public:
    /// Validates the params eagerly (bad ones throw here, not
    /// mid-exploration on a worker thread).
    explicit OptimizedMappingStrategy(LocalSearchParams params = {});

    std::string name() const override;
    LocalSearchResult search(const EvaluationContext& ctx, const Mapping& initial,
                             std::uint64_t seed,
                             const CancellationToken* cancel = nullptr) const override;
    LocalSearchResult search(EvalContext& eval, const Mapping& initial, std::uint64_t seed,
                             const CancellationToken* cancel = nullptr) const override;

private:
    LocalSearchParams params_;
};

} // namespace seamap
