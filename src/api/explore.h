// The one-call entry point of the public API: run the paper's Fig. 4
// design-space exploration on a Problem with a named search strategy.
//
//     Problem problem = ProblemBuilder()...build();
//     ExploreOptions options;
//     options.strategy = "annealing";           // or "optimized" (default)
//     options.dse.search.max_iterations = 6'000;
//     options.dse.num_threads = 0;              // one per hardware thread
//     DseResult result = explore(problem, options);
//
// Progress streaming and cooperative cancellation ride along through
// the optional ProgressObserver / CancellationToken arguments.
#pragma once

#include "api/observer.h"
#include "api/problem.h"
#include "core/dse.h"
#include "core/dse_checkpoint.h"
#include "util/cancellation.h"

#include <string>

namespace seamap {

/// Exploration options: a built-in strategy name ("optimized" or
/// "annealing") plus the explorer knobs. The strategy is built from
/// `dse.search` (see api/strategy.h for which knobs each engine
/// honors); `dse.search.seed` is the per-scaling seed base.
struct ExploreOptions {
    std::string strategy = "optimized";
    DseParams dse;
};

/// Run the full exploration. Throws std::invalid_argument for an
/// unknown strategy name. `checkpoint`, when non-null, makes the run
/// crash-safe: newly decided scalings are appended to its journal on the
/// checkpointer's cadence, and a previously loaded prefix (see
/// core/dse_checkpoint.h) is resumed — final results are byte-identical
/// to the uninterrupted run at any thread count.
DseResult explore(const Problem& problem, const ExploreOptions& options = {},
                  ProgressObserver* observer = nullptr,
                  const CancellationToken* cancel = nullptr,
                  DseCheckpointer* checkpoint = nullptr);

/// The exploration's checkpoint identity hash for a (problem, options)
/// pair — what a DseCheckpointer for this run must be keyed with.
std::uint64_t explore_state_hash(const Problem& problem, const ExploreOptions& options);

} // namespace seamap
