#include "core/search_strategy.h"

namespace seamap {

SearchStrategy::~SearchStrategy() = default;

LocalSearchResult SearchStrategy::search(const EvaluationContext& ctx, const Mapping& initial,
                                         std::uint64_t seed,
                                         const CancellationToken* cancel) const {
    EvalContext eval(ctx);
    return search(eval, initial, seed, cancel);
}

} // namespace seamap
