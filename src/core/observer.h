// Progress streaming for the design-space exploration. A caller hands
// the explorer a ProgressObserver to watch scalings complete and the
// incumbent (P, Gamma) design improve while the search runs — e.g. to
// drive a progress bar, stream partial results over a wire, or decide
// to cancel early through the companion CancellationToken
// (util/cancellation.h). Re-exported to API users via api/observer.h.
//
// Callback discipline: the explorer serializes all callbacks behind one
// mutex, so implementations need no locking of their own, but they may
// be invoked from worker threads (never concurrently). With
// num_threads > 1 the *order* in which scalings complete is
// nondeterministic; the enumeration `index` identifies each one. The
// final DseResult is unaffected by anything an observer does.
#pragma once

#include "arch/scaling_enumerator.h"
#include "core/dse.h"
#include "reliability/design_eval.h"

#include <cstddef>

namespace seamap {

/// Completion report for one scaling combination.
struct ScalingProgress {
    /// Position in the Fig. 5 enumeration order.
    std::size_t index = 0;
    /// Total combinations in this exploration.
    std::size_t total = 0;
    ScalingVector levels;
    enum class Outcome {
        skipped_infeasible, ///< failed the T_M lower-bound gate
        pruned,             ///< bounds dominated by an incumbent; search skipped
        searched_no_design, ///< searched, no feasible mapping found
        feasible,           ///< searched, `metrics` holds the design's scores
    };
    Outcome outcome = Outcome::skipped_infeasible;
    /// Valid when outcome == feasible.
    DesignMetrics metrics;
};

/// Override any subset; the defaults do nothing.
class ProgressObserver {
public:
    virtual ~ProgressObserver();

    /// Exploration is starting; `total_scalings` combinations will be
    /// gated/searched (fewer complete if cancelled).
    virtual void on_explore_begin(std::size_t total_scalings);

    /// One scaling combination finished (in completion order). The
    /// streamed outcome is the worker's live view: with pruning on, a
    /// combination reported `feasible` here can still be dropped from
    /// the final feasible_points when the deterministic replay ledger
    /// proves it dominated (its design never reaches the front or the
    /// pick either way).
    virtual void on_scaling_done(const ScalingProgress& progress);

    /// A new best-so-far feasible design: the paper's selection rule
    /// (minimum power, Gamma tie-break) applied to the Pareto front of
    /// everything completed so far. Because dominated designs never
    /// move a Pareto front, the last streamed incumbent equals the
    /// final `best` bit-for-bit at any thread count, pruned or not
    /// (absent cancellation).
    virtual void on_incumbent(const DsePoint& incumbent);

    /// Exploration finished; `result` is the value explore() returns.
    virtual void on_explore_end(const DseResult& result);
};

} // namespace seamap
