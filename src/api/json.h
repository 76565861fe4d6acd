// JSON views of the public result types, built on the deterministic
// util/json.h writer. The documents are stable (insertion-ordered
// keys, shortest round-trip doubles), so `seamap_cli optimize --json`
// output is golden-testable and byte-identical across thread counts.
//
// Schema of optimize_report_json (the `optimize --json` document):
//   {
//     "seamap_version": "x.y.z",
//     "strategy": "optimized" | "annealing" | <the caller's strategy name>,
//     "problem": {
//       "graph": {"name", "tasks", "edges", "batches"},
//       "architecture": {"cores", "scaling_levels"},
//       "deadline_seconds", "exposure_policy"
//     },
//     "result": {
//       "scalings": {"total", "enumerated", "emitted", "searched",
//                    "skipped_infeasible", "pruned"},
//                    // enumerated < total only when cancelled/cut early
//       "best": <point> | null,
//       "feasible_count",
//       "pareto_front": [<point>...]
//     }
//   }
// where <point> = {"levels": [..], "core_of": [..], "metrics":
// {"tm_seconds", "latency_seconds", "register_bits", "gamma",
// "power_mw", "feasible"}}.
// Schema of campaign_report_json (the `campaign --json` document):
//   {
//     "seamap_version", "strategy",
//     "design": <point> | null,
//     "campaign": {                      // absent when design is null
//       "trials", "shards", "shard_size", "seed",
//       "analytic_gamma",
//       "total": <stats>,
//       "sites": {"register_file": {"analytic_gamma", ...<stats>},
//                 "pipeline": {...}, "memory": {...}},
//       "hits_per_core": [..], "hits_per_task": [..]
//     }
//   }
// where <stats> = {"mean", "stdev", "ci95_halfwidth", "min", "max",
// "hits"} over the per-trial hit counts.
#pragma once

#include "api/problem.h"
#include "core/dse.h"
#include "reliability/design_eval.h"
#include "sim/campaign.h"
#include "util/error.h"
#include "util/json.h"
#include "util/stats.h"

#include <string_view>

namespace seamap {

JsonValue to_json(const DesignMetrics& metrics);
JsonValue to_json(const DsePoint& point);
JsonValue to_json(const DseResult& result);
JsonValue to_json(const Problem& problem);
JsonValue to_json(const ExactMoments& stats);
JsonValue to_json(const CampaignReport& report);

/// Structured error object: {"code", "message"} plus "context" when one
/// was attached — the machine-readable failure surface `seamap_cli
/// ... --json` wraps as {"error": ...}.
JsonValue to_json(const Error& error);

/// The complete `optimize --json` document (see schema above).
JsonValue optimize_report_json(const Problem& problem, std::string_view strategy_name,
                               const DseResult& result);

/// The complete `campaign --json` document (see schema above): the
/// explored design plus the sharded campaign's measurement report.
/// Byte-identical for every thread count and shard schedule.
JsonValue campaign_report_json(const Problem& problem, std::string_view strategy_name,
                               const DsePoint* design, const CampaignReport* report);

} // namespace seamap
