#include "core/search_strategy.h"

namespace seamap {

SearchStrategy::~SearchStrategy() = default;

LocalSearchResult SearchStrategy::search(EvalContext& eval, const Mapping& initial,
                                         std::uint64_t seed,
                                         const CancellationToken* cancel) const {
    return search(eval.problem(), initial, seed, cancel);
}

OptimizedMappingStrategy::OptimizedMappingStrategy(LocalSearchParams params)
    : params_(params) {
    validate(params_);
}

std::string OptimizedMappingStrategy::name() const { return "optimized"; }

LocalSearchResult OptimizedMappingStrategy::search(const EvaluationContext& ctx,
                                                   const Mapping& initial,
                                                   std::uint64_t seed,
                                                   const CancellationToken* cancel) const {
    EvalContext eval(ctx);
    return search(eval, initial, seed, cancel);
}

LocalSearchResult OptimizedMappingStrategy::search(EvalContext& eval, const Mapping& initial,
                                                   std::uint64_t seed,
                                                   const CancellationToken* cancel) const {
    LocalSearchParams params = params_;
    params.seed = seed;
    return OptimizedMapping(params).optimize(eval, initial, cancel);
}

} // namespace seamap
