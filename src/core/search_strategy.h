// The pluggable per-scaling mapping-search contract the explorer
// (core/dse.h) calls, plus core's own strategy, the paper's Fig. 7
// search, whose walk is defined in core/optimized_mapping.cpp.
// Interchangeable engines living above core (the SA baseline of
// baseline/simulated_annealing.h, or a caller's own backend passed to
// DesignSpaceExplorer::explore) implement this same interface; the
// factory that builds the two built-ins by name lives with the public
// API in api/strategy.h, keeping the dependency graph acyclic (core
// never looks upward).
//
// Determinism contract: search() must be a pure function of
// (problem, initial, seed) whenever `cancel` never fires. The explorer
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

/// One per-scaling mapping-search engine. An engine implements name()
/// and the EvalContext overload of search(); derived classes add
/// `using SearchStrategy::search;` to keep the EvaluationContext
/// convenience overload visible.
class SearchStrategy {
public:
    virtual ~SearchStrategy();

    /// Display name ("optimized", "annealing", ...).
    virtual std::string name() const = 0;

    /// Search a mapping for the fixed scaling of `eval.problem()`,
    /// starting from the complete mapping `initial`. `eval` is the
    /// worker's EvalContext (core/eval_context.h), rebound to the slot:
    /// it carries preallocated scratch, the memo table and the
    /// incremental scheduler. `seed` is the per-scaling derived seed
    /// (the explorer varies it per combination so repeated scalings do
    /// not replay the same walk); `cancel`, when non-null, must be
    /// polled so the explorer can stop its workers cooperatively.
    virtual LocalSearchResult search(EvalContext& eval, const Mapping& initial,
                                     std::uint64_t seed,
                                     const CancellationToken* cancel = nullptr) const = 0;

    /// Search one scaling outside the explorer: builds a fresh
    /// EvalContext over `ctx` and runs the overload above on it.
    virtual LocalSearchResult search(const EvaluationContext& ctx, const Mapping& initial,
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
    using SearchStrategy::search;
    LocalSearchResult search(EvalContext& eval, const Mapping& initial, std::uint64_t seed,
                             const CancellationToken* cancel = nullptr) const override;

private:
    LocalSearchParams params_;
};

} // namespace seamap
