// Stage 1 of the proposed soft error-aware task mapping: the greedy
// constructive InitialSEAMapping of the paper's Fig. 6.
//
// The algorithm grows one core at a time. Starting from the graph's
// source task, it repeatedly maps the *dependent* of the current task
// that adds the fewest expected SEUs to the core (dependents share
// registers with their producer, so following dependency edges is how
// the greedy localizes shared state), until either the core's busy
// time would exceed the real-time budget T_Mref or too few unmapped
// tasks remain to populate the other cores. Tasks bypassed along the
// way wait in a queue Q and seed the next cores; whatever remains after
// core C-1 lands on the last core.
//
// The implementation is one step, fill_core, run for cores 0..C-2 (core
// 0 alone on a single-core system). Core c's fill reads only what the
// earlier fills left (the partial mapping, Q, the queued flags and a
// lowest-unmapped cursor), levels[c] (the core's frequency and Vdd),
// the deadline and the number of cores after c. Two slots that share a
// level prefix therefore repeat identical fills for that prefix. The
// step allocates nothing; the buffers are sized once per call.
#pragma once

#include "reliability/design_eval.h"
#include "sched/mapping.h"

namespace seamap {

/// Greedy SEU-aware constructive mapping (Fig. 6). Always returns a
/// complete mapping; feasibility is the job of stage 2. `ctx.graph`
/// must be validated (TaskGraph::validate), as for every algorithm;
/// `ctx.levels` is checked against the architecture.
Mapping initial_sea_mapping(const EvaluationContext& ctx);

} // namespace seamap
