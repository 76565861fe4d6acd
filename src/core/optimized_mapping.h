// Stage 2 of the proposed soft error-aware task mapping: the
// OptimizedMapping local search of the paper's Fig. 7.
//
// Starting from the stage-1 mapping, the search walks a move/swap
// neighbourhood; every candidate is list-scheduled (step D) and the
// best *feasible* design by expected SEUs is retained (steps E-F). The
// walk itself is greedy with an exploration probability so it can
// escape local minima, and — like the paper — it runs until a search
// budget (iterations and/or wall-clock) is exhausted rather than to
// convergence.
#pragma once

#include "core/eval_context.h"
#include "reliability/design_eval.h"
#include "sched/mapping.h"
#include "util/cancellation.h"

#include <cstdint>

namespace seamap {

/// Search knobs. The paper uses wall-clock budgets (40-130 min of
/// SystemC-driven search); with the analytic evaluator the default
/// iteration budget explores a comparable design-space fraction in
/// milliseconds. Set `time_budget_seconds` > 0 to add a wall-clock cap.
struct LocalSearchParams {
    std::uint64_t max_iterations = 4'000;
    double time_budget_seconds = 0.0; ///< 0 = iteration budget only
    /// Annealed acceptance of non-improving walk steps: a worse
    /// neighbour (relative cost increase d) is accepted with
    /// probability exp(-d / T), with T cooled geometrically from
    /// `initial_temperature` to `final_temperature` within each restart
    /// segment. Mbest tracking (steps E-F) is unaffected — only
    /// feasible, lower-Gamma designs ever become the returned best.
    double initial_temperature = 0.30;
    double final_temperature = 1e-4;
    /// Probability that a neighbour swaps two tasks instead of moving one.
    double swap_probability = 0.3;
    /// Every `sweep_interval` iterations the search systematically
    /// evaluates all single-task moves from the current mapping and
    /// takes the best one — the paper's exhaustive neighbourhood pass
    /// (its O(N^3) complexity analysis assumes such sweeps). 0 disables.
    std::uint64_t sweep_interval = 25;
    /// Reject task movements that would leave a previously-populated
    /// core without tasks. The paper's designs keep every core of the
    /// chosen architecture allocation populated (Tables II/III); leave
    /// this off to let the search shut cores down.
    bool require_all_cores = false;
    /// Independent walk restarts sharing the iteration budget; restart
    /// k > 0 begins from a randomly perturbed copy of the initial
    /// mapping. Escapes local minima that a single walk gets stuck in.
    std::uint64_t restarts = 3;
    std::uint64_t seed = 1;
};

/// Outcome of one local-search run.
struct LocalSearchResult {
    Mapping best_mapping;
    DesignMetrics best_metrics;
    bool found_feasible = false;
    std::uint64_t iterations_run = 0;
    std::uint64_t improvements = 0;
    std::uint64_t evaluations = 0;
};

/// Fig. 7 search engine.
class OptimizedMapping {
public:
    explicit OptimizedMapping(LocalSearchParams params);

    /// Search from `initial` (complete). Returns the best feasible
    /// design by Gamma; if none was found, the design closest to
    /// feasibility (smallest T_M). An optional `cancel` token caps the
    /// walk on top of the iteration/time budgets — it is checked inside
    /// the loop, so a search never overshoots a stop request or token
    /// deadline by more than one design evaluation. Builds a fresh
    /// EvalContext internally (fast path, default EvalOptions).
    LocalSearchResult optimize(const EvaluationContext& ctx, const Mapping& initial,
                               const CancellationToken* cancel = nullptr) const;

    /// Search on a caller-provided evaluation context (the explorer
    /// builds one per scaling combination; tests/benches select the
    /// naive-reference path through it). The walk — RNG draws, step
    /// acceptance, best tracking — is a pure function of
    /// (ctx, initial, seed) regardless of the context's EvalOptions:
    /// every evaluation path is bit-identical.
    LocalSearchResult optimize(EvalContext& eval, const Mapping& initial,
                               const CancellationToken* cancel = nullptr) const;

private:
    LocalSearchParams params_;
};

} // namespace seamap
