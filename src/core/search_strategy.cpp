#include "core/search_strategy.h"

namespace seamap {

SearchStrategy::~SearchStrategy() = default;

LocalSearchResult SearchStrategy::search(EvalContext& eval, const Mapping& initial,
                                         std::uint64_t seed,
                                         const CancellationToken* cancel) const {
    return search(eval.problem(), initial, seed, cancel);
}

} // namespace seamap
