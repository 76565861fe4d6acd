// Umbrella header of the seamap public API — one include for the whole
// Fig. 4 flow:
//
//   Problem / ProblemBuilder   (api/problem.h)   what to optimize
//   SearchStrategy + factory   (api/strategy.h)  how to search mappings
//   explore()                  (api/explore.h)   run the exploration
//   ProgressObserver           (api/observer.h)  watch it run
//   CancellationToken          (util/cancellation.h) stop it early
//   to_json / JsonValue        (api/json.h)      machine-readable results
//   seamap::Error              (util/error.h)    structured failures
//   DseCheckpointer            (core/dse_checkpoint.h, via api/explore.h)
//                                                crash-safe resume
//
// Workload builders (taskgraph/, tgff/) and the fault injector (sim/)
// keep their own headers; the core types they produce/consume
// (TaskGraph, MpsocArchitecture, DseResult, ...) arrive transitively.
#pragma once

#include "seamap/version.h" // arch-check: export

#include "api/explore.h" // arch-check: export
#include "api/json.h" // arch-check: export
#include "api/observer.h" // arch-check: export
#include "api/problem.h" // arch-check: export
#include "api/strategy.h" // arch-check: export
#include "util/cancellation.h" // arch-check: export
#include "util/error.h" // arch-check: export
