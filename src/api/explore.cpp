#include "api/explore.h"

#include "api/strategy.h"
#include "core/dse_checkpoint.h"

#include <memory>

namespace seamap {

DseResult explore(const Problem& problem, const ExploreOptions& options,
                  ProgressObserver* observer, const CancellationToken* cancel,
                  DseCheckpointer* checkpoint) {
    const DesignSpaceExplorer explorer(problem.ser_model(), problem.exposure_policy());
    // One construction path for both names, from options.dse.search.
    const std::unique_ptr<SearchStrategy> strategy =
        make_search_strategy(options.strategy, options.dse.search);
    return explorer.explore(problem.graph(), problem.architecture(),
                            problem.deadline_seconds(), options.dse, *strategy, observer,
                            cancel, checkpoint);
}

std::uint64_t explore_state_hash(const Problem& problem, const ExploreOptions& options) {
    return dse_state_hash(problem.graph(), problem.architecture(),
                          problem.deadline_seconds(), options.dse, problem.ser_model(),
                          problem.exposure_policy(), options.strategy);
}

} // namespace seamap
