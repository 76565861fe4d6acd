// The public API's factory for the two built-in search strategies. The
// SearchStrategy contract and the Fig. 7 "optimized" strategy live in
// core/search_strategy.h, the "annealing" baseline in
// baseline/simulated_annealing.h — the explorer consumes the interface
// without looking upward; this header is where the built-ins are
// *named*, so explore(problem, options) and seamap_cli's --strategy can
// pick one by string. A custom engine needs no name: pass it to
// DesignSpaceExplorer::explore (core/dse.h) directly.
#pragma once

#include "baseline/simulated_annealing.h" // arch-check: export
#include "core/optimized_mapping.h"
#include "core/search_strategy.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace seamap {

/// Build the built-in strategy called `name` ("optimized" or
/// "annealing") from `params`, the one knob set both engines share, so
/// the same ExploreOptions mean the same thing regardless of the name.
/// Both consume max_iterations, swap_probability and
/// require_all_cores; sweep_interval and restarts are Fig. 7 concepts
/// the annealing baseline ignores. The `seed` field is always ignored
/// — per-scaling seeds arrive through search(). Wall-clock limits come
/// only from the caller's CancellationToken. Throws
/// std::invalid_argument naming the known strategies when `name` is
/// unknown, and when the params are invalid.
std::unique_ptr<SearchStrategy> make_search_strategy(std::string_view name,
                                                     const LocalSearchParams& params = {});

/// The built-in names, sorted: {"annealing", "optimized"}.
std::vector<std::string> search_strategy_names();

} // namespace seamap
