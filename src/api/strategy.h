// The name-keyed search-strategy registry of the public API. The
// SearchStrategy contract and the Fig. 7 "optimized" strategy live in
// core/search_strategy.h, the "annealing" baseline in
// baseline/simulated_annealing.h — the explorer consumes the interface
// without looking upward; this header is where interchangeable engines
// are *assembled and named*: both built-ins are pre-registered, and a
// new backend is one register_search_strategy() call away.
#pragma once

#include "baseline/simulated_annealing.h" // arch-check: export
#include "core/optimized_mapping.h"
#include "core/search_strategy.h"

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
