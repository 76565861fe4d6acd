// Thread-count resolution and an index-parallel loop (the explorer,
// core/dse.cpp, runs its own workers over its slot deque). Completion
// order is whatever the threads make of it, so callers that need
// deterministic output write results into pre-assigned slots and merge
// them in a fixed order afterwards (see CampaignEngine::run).
#pragma once

#include <cstddef>
#include <functional>

namespace seamap {

/// std::thread::hardware_concurrency() with a floor of 1.
std::size_t hardware_threads();

/// The project-wide "0 means auto" rule, resolved in exactly one
/// place: 0 clamps to hardware_threads(), anything else passes
/// through. Used by parallel_for_index and DseParams::num_threads.
std::size_t resolve_thread_count(std::size_t configured);

/// Run f(i) for every i in [0, count). `threads` follows the "0 means
/// auto" rule (resolve_thread_count); with one thread the calls run
/// inline on the caller's thread, otherwise min(threads, count)
/// threads pull indices from a shared counter. f must be safe to call
/// concurrently for distinct indices; the first exception thrown by
/// any call is rethrown on the caller's thread once every thread has
/// joined (a thread whose call threw stops pulling indices).
void parallel_for_index(std::size_t count, std::size_t threads,
                        const std::function<void(std::size_t)>& f);

} // namespace seamap
