// Reference-path decorator for tests and benches: runs a wrapped
// strategy's searches on a naive-reference EvalContext
// (EvalOptions::naive_reference, core/eval_context.h), so every
// evaluation goes through evaluate_design(). The explorer always
// searches on the fast path; wrapping its strategy in this decorator
// is how a whole exploration is pinned against the naive path, which
// must give a byte-identical result.
#pragma once

#include "api/explore.h"
#include "api/problem.h"
#include "core/dse.h"
#include "core/eval_context.h"
#include "core/optimized_mapping.h"
#include "core/search_strategy.h"
#include "sched/mapping.h"
#include "util/cancellation.h"

#include <cstdint>
#include <memory>
#include <string>

namespace seamap {

class NaiveEvalStrategy final : public SearchStrategy {
public:
    explicit NaiveEvalStrategy(std::unique_ptr<SearchStrategy> inner);

    std::string name() const override;
    /// Ignores `eval` apart from its problem: the wrapped search runs
    /// on a fresh naive-reference context.
    LocalSearchResult search(EvalContext& eval, const Mapping& initial, std::uint64_t seed,
                             const CancellationToken* cancel = nullptr) const override;

private:
    std::unique_ptr<SearchStrategy> inner_;
};

/// explore(problem, options) with the named built-in strategy wrapped
/// in NaiveEvalStrategy.
DseResult explore_naive(const Problem& problem, const ExploreOptions& options);

} // namespace seamap
