// The full design-space exploration of the paper's Fig. 4: joint power
// minimization (voltage scaling, step 1) and reliability improvement
// (soft error-aware task mapping, step 2) under a real-time constraint,
// with iterative assessment (step 3).
//
// Scaling combinations are generated *lazily*, bound-sorted, by
// core/lazy_scaling_queue.h — the full Fig. 5 sequence is never
// materialized. Combinations whose execution-time lower bound already
// misses the deadline are skipped at pop time. The survivors run as a
// bound-driven branch-and-bound: each gets sound power/Gamma lower
// bounds (core/scaling_bounds.h), pops arrive in ascending power-bound
// order so good incumbents arrive early, and dominated combinations
// are *disposed of* before their searches are ever submitted (plus a
// worker-side skip for slots already in flight). For every combination
// that survives, the two-stage mapper (InitialSEAMapping, then the
// strategy's search; the paper's is the Fig. 7 OptimizedMappingStrategy)
// minimizes the expected SEUs; the explorer records
// each feasible design's (P, Gamma) and finally reports
//   - the paper's pick: minimum power, ties broken by fewer SEUs
//     (applied to the Pareto front, where it is independent of
//     evaluation order and of pruning), and
//   - the Pareto front over (P, Gamma) for inspection.
//
// Pruning soundness: a combination is pruned only when an already-
// evaluated design beats its *lower bounds* strictly in both power and
// Gamma — every design it could contain is then strictly dominated, so
// `best` and `pareto_front` are bit-identical to the exhaustive run.
// Determinism: the replay ledger (ReplayLedger in dse.cpp) decides
// every gate-passing slot in pop order (itself a pure function of the
// problem) from the recorded outcomes, so which combinations count as
// pruned (and therefore feasible_points and every counter) is a pure
// function of the problem — identical at every thread count. It is
// the only code that sets those verdicts and writes checkpoint
// records. Pop-time disposal consults the replay front at a fixed lag
// (never the racing live front), and worker-side pruning against the
// replay front is only ever a subset of the full replay's (a search
// the replay prunes is discarded as speculative). ExploreRun in dse.cpp
// states which lock guards what.
#pragma once

#include "arch/mpsoc.h"
#include "arch/scaling_enumerator.h"
#include "core/optimized_mapping.h"
#include "reliability/design_eval.h"
#include "reliability/ser_model.h"
#include "reliability/seu_estimator.h"
#include "sched/mapping.h"
#include "taskgraph/task_graph.h"
#include "util/cancellation.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace seamap {

class SearchStrategy;   // core/search_strategy.h
class ProgressObserver; // core/observer.h
class DseCheckpointer;  // core/dse_checkpoint.h

/// One evaluated design point.
struct DsePoint {
    ScalingVector levels;
    Mapping mapping;
    DesignMetrics metrics;
};

/// Exploration knobs. Every search runs on the fast EvalContext path
/// (core/eval_context.h); a whole-exploration naive-reference run wraps
/// its strategy instead, so the explorer has no evaluation-path knob.
struct DseParams {
    /// Per-scaling mapping-search effort (Fig. 7 budget).
    /// make_search_strategy builds either built-in from this one knob
    /// set (api/strategy.h); for *any* strategy, `search.seed` is the
    /// base from which per-scaling seeds derive.
    LocalSearchParams search;
    /// Explorer worker threads; each claims the next emitted scaling
    /// and runs its independent search (own derived seed) while the
    /// calling thread produces. 1 = one worker; 0 = one per hardware
    /// thread, clamped to std::thread::hardware_concurrency() in
    /// exactly one place (resolve_thread_count, util/parallel.h).
    /// Results are bit-identical for every thread count — including 0
    /// vs. the explicit hardware count — absent cancellation (a stop
    /// request or a token deadline) cutting searches short.
    std::size_t num_threads = 1;
    /// Bound-driven pruning: skip scaling combinations whose power and
    /// Gamma lower bounds are strictly dominated by an already-found
    /// design. `best` and `pareto_front` are unaffected (bit-identical
    /// to an exhaustive run); `feasible_points` loses only provably
    /// dominated entries, deterministically at every thread count.
    /// Turn off to force the exhaustive Fig. 4 sweep.
    bool prune = true;
};

/// Exploration outcome.
struct DseResult {
    /// Minimum-power feasible design (Gamma tie-break); nullopt when no
    /// scaling meets the deadline.
    std::optional<DsePoint> best;
    /// Every feasible design point evaluated.
    std::vector<DsePoint> feasible_points;
    /// Non-dominated subset over (power_mw, gamma).
    std::vector<DsePoint> pareto_front;
    /// Size of the full Fig. 5 sequence for this architecture.
    std::uint64_t scalings_total = 0;
    /// Combinations whose evaluation actually started (gate applied).
    /// Equals scalings_total on a full run; smaller when cancellation
    /// (a stop request or a token deadline) stopped the exploration early —
    /// enumerated/total is the completed fraction.
    std::uint64_t scalings_enumerated = 0;
    std::uint64_t scalings_skipped_infeasible = 0;
    /// Gate-passing combinations whose mapping searches were actually
    /// submitted — i.e. not disposed of at pop time by the lazy
    /// enumeration's dominance check. Deterministic at every thread
    /// count; `scalings_searched <= scalings_emitted`, and the gap to
    /// `scalings_searched + scalings_pruned` is the work the lazy
    /// enumeration saved outright. Without pruning every gate passer
    /// is emitted.
    std::uint64_t scalings_emitted = 0;
    /// Combinations whose whole mapping space was provably dominated
    /// by an already-found design (DseParams::prune); their searches
    /// were skipped (or discarded as speculative). Deterministic for
    /// any thread count.
    std::uint64_t scalings_pruned = 0;
    /// Combinations whose mapping search ran and counted.
    std::uint64_t scalings_searched = 0;
};

/// Fig. 4 explorer. The per-scaling mapping search is pluggable: any
/// SearchStrategy (core/search_strategy.h) slots in — the paper's
/// Fig. 7 search, the SA baseline, or a caller's own backend.
class DesignSpaceExplorer {
public:
    explicit DesignSpaceExplorer(SerModel ser,
                                 ExposurePolicy policy = ExposurePolicy::full_duration);

    /// Explore with `strategy` searching every slot (the paper's is
    /// OptimizedMappingStrategy(params.search)). `observer`, when non-null,
    /// streams per-scaling progress and incumbent (P, Gamma) designs
    /// (serialized, possibly from worker threads); `cancel`, when
    /// non-null, stops the exploration cooperatively — already-finished
    /// scalings are folded into the (partial) result. `checkpoint`,
    /// when non-null, supplies an already-decided slot prefix (load it
    /// beforehand — core/dse_checkpoint.h), receives every newly
    /// decided slot and flushes its journal on its cadence; resuming a
    /// killed exploration reproduces the uninterrupted result
    /// byte-for-byte at any thread count.
    DseResult explore(const TaskGraph& graph, const MpsocArchitecture& arch,
                      double deadline_seconds, const DseParams& params,
                      const SearchStrategy& strategy,
                      ProgressObserver* observer = nullptr,
                      const CancellationToken* cancel = nullptr,
                      DseCheckpointer* checkpoint = nullptr) const;

private:
    SerModel ser_;
    ExposurePolicy policy_;
};

/// Pareto filter over (power_mw, gamma); exposed for tests and benches.
/// Points whose power AND gamma agree within a relative epsilon are
/// deduplicated so the front is a clean staircase.
std::vector<DsePoint> pareto_front_of(const std::vector<DsePoint>& points);

} // namespace seamap
