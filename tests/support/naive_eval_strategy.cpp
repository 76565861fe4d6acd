#include "support/naive_eval_strategy.h"

#include "api/strategy.h"

#include <utility>

namespace seamap {

NaiveEvalStrategy::NaiveEvalStrategy(std::unique_ptr<SearchStrategy> inner)
    : inner_(std::move(inner)) {}

std::string NaiveEvalStrategy::name() const { return inner_->name(); }

LocalSearchResult NaiveEvalStrategy::search(const EvaluationContext& ctx,
                                            const Mapping& initial, std::uint64_t seed,
                                            const CancellationToken* cancel) const {
    EvalContext naive(ctx, {.naive_reference = true});
    return inner_->search(naive, initial, seed, cancel);
}

LocalSearchResult NaiveEvalStrategy::search(EvalContext& eval, const Mapping& initial,
                                            std::uint64_t seed,
                                            const CancellationToken* cancel) const {
    return search(eval.problem(), initial, seed, cancel);
}

DseResult explore_naive(const Problem& problem, const ExploreOptions& options) {
    const DesignSpaceExplorer explorer(problem.ser_model(), problem.exposure_policy());
    const NaiveEvalStrategy strategy(
        make_search_strategy(options.strategy, options.dse.search));
    return explorer.explore(problem.graph(), problem.architecture(),
                            problem.deadline_seconds(), options.dse, strategy);
}

} // namespace seamap
