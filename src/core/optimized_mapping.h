// Stage 2 of the proposed soft error-aware task mapping: the
// OptimizedMapping local search of the paper's Fig. 7.
//
// Starting from the stage-1 mapping, the search walks a move/swap
// neighbourhood; every candidate is list-scheduled (step D) and the
// best *feasible* design by expected SEUs is retained (steps E-F). The
// walk itself is greedy with an exploration probability so it can
// escape local minima, and — like the paper — it runs until a search
// budget (its iterations, or the caller's cancellation token) is
// exhausted rather than to convergence.
#pragma once

#include "core/eval_context.h"
#include "reliability/design_eval.h"
#include "sched/mapping.h"
#include "util/cancellation.h"

#include <cstdint>

namespace seamap {

/// Search knobs of both mapping engines (this Fig. 7 search and the
/// annealing baseline, which ignores sweep_interval and restarts). The
/// paper uses wall-clock budgets (40-130 min of SystemC-driven search);
/// with the analytic evaluator the default iteration budget explores a
/// comparable design-space fraction in milliseconds. A wall-clock cap
/// is the caller's CancellationToken deadline.
struct LocalSearchParams {
    std::uint64_t max_iterations = 4'000; ///< must be > 0
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

/// Throws std::invalid_argument unless max_iterations > 0 and
/// swap_probability is in [0, 1] (NaN is not). Both engines call it.
void validate(const LocalSearchParams& params);

/// Both walks accept a worse neighbour (relative cost increase d) with
/// probability exp(-d / T), T cooled geometrically from the initial to
/// the final temperature per Fig. 7 restart segment (the annealer: over
/// its whole budget). Fig. 7's Mbest tracking (steps E-F) is unaffected.
inline constexpr double k_initial_temperature = 0.30;
inline constexpr double k_final_temperature = 1e-4;

/// Outcome of one local-search run, from either engine.
struct LocalSearchResult {
    Mapping best_mapping;
    DesignMetrics best_metrics;
    bool found_feasible = false;
    /// Walk-loop iterations executed, including ones whose neighbour
    /// left the mapping unchanged and restart or sweep steps.
    std::uint64_t iterations_run = 0;
    /// Fig. 7: times a feasible design with fewer expected SEUs became
    /// the best. Annealing: accepted walk moves.
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
    /// walk on top of the iteration budget — it is checked inside the
    /// loop, so a search never overshoots a stop request or token
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
