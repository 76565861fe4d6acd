// The name-keyed search-strategy registry of the public API, plus the
// SA-baseline adapter. The SearchStrategy contract itself (and the
// Fig. 7 "optimized" implementation) lives in core/search_strategy.h —
// the explorer consumes the interface without looking upward; this
// header is where interchangeable engines are *assembled and named*:
// the built-ins "optimized" and "annealing" are pre-registered, and a
// new backend is one register_search_strategy() call away.
#pragma once

#include "baseline/objectives.h"
#include "baseline/simulated_annealing.h"
#include "core/eval_context.h"
#include "core/optimized_mapping.h"
#include "core/search_strategy.h"
#include "reliability/design_eval.h"
#include "sched/mapping.h"
#include "util/cancellation.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace seamap {

/// The canonical knob set a registry factory receives — one struct for
/// every engine, so the same ExploreOptions mean the same thing
/// regardless of the strategy name. Each engine honors the knobs it
/// understands: both built-ins consume max_iterations, swap_probability
/// and require_all_cores; sweep_interval and restarts are Fig. 7
/// concepts the annealing baseline ignores. The `seed` field is always
/// ignored — per-scaling seeds arrive through search(). Wall-clock
/// limits come only from the caller's CancellationToken.
using StrategyOptions = LocalSearchParams;

/// The simulated-annealing baseline mapper [13], annealing on any of
/// the Table II objectives (Gamma by default, which makes it a fair
/// soft-error-aware baseline). The `seed` field of the params is
/// ignored — search() uses its seed argument.
class AnnealingStrategy final : public SearchStrategy {
public:
    /// Validates the params eagerly (bad ones throw here, not
    /// mid-exploration on a worker thread).
    explicit AnnealingStrategy(LocalSearchParams params = {},
                               MappingObjective objective = MappingObjective::seu_count);

    std::string name() const override;
    LocalSearchResult search(const EvaluationContext& ctx, const Mapping& initial,
                             std::uint64_t seed,
                             const CancellationToken* cancel = nullptr) const override;
    LocalSearchResult search(EvalContext& eval, const Mapping& initial, std::uint64_t seed,
                             const CancellationToken* cancel = nullptr) const override;

private:
    LocalSearchParams params_;
    MappingObjective objective_;
};

using StrategyFactory = std::function<std::unique_ptr<SearchStrategy>(const StrategyOptions&)>;

/// Register a strategy under `name`. Returns false (and changes
/// nothing) when the name is already taken. Thread-safe.
bool register_search_strategy(std::string name, StrategyFactory factory);

/// Instantiate a registered strategy; throws std::invalid_argument
/// naming the known strategies when `name` is unknown or when the
/// factory returns null. "optimized" and "annealing" are built in.
std::unique_ptr<SearchStrategy> make_search_strategy(std::string_view name,
                                                     const StrategyOptions& options = {});

/// Registered names, sorted. ("optimized", "annealing" built in.)
std::vector<std::string> search_strategy_names();

} // namespace seamap
