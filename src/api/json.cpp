#include "api/json.h"

#include "util/version.h"

namespace seamap {

JsonValue to_json(const DesignMetrics& metrics) {
    JsonValue out = JsonValue::object();
    out["tm_seconds"] = metrics.tm_seconds;
    out["latency_seconds"] = metrics.latency_seconds;
    out["register_bits"] = metrics.register_bits;
    out["gamma"] = metrics.gamma;
    out["power_mw"] = metrics.power_mw;
    out["feasible"] = metrics.feasible;
    return out;
}

JsonValue to_json(const DsePoint& point) {
    JsonValue out = JsonValue::object();
    JsonValue levels = JsonValue::array();
    for (const ScalingLevel level : point.levels)
        levels.push_back(static_cast<std::int64_t>(level));
    out["levels"] = std::move(levels);
    JsonValue core_of = JsonValue::array();
    for (const CoreId core : point.mapping.raw())
        core_of.push_back(static_cast<std::int64_t>(core));
    out["core_of"] = std::move(core_of);
    out["metrics"] = to_json(point.metrics);
    return out;
}

JsonValue to_json(const DseResult& result) {
    JsonValue out = JsonValue::object();
    JsonValue scalings = JsonValue::object();
    scalings["total"] = result.scalings_total;
    scalings["enumerated"] = result.scalings_enumerated;
    scalings["emitted"] = result.scalings_emitted;
    scalings["searched"] = result.scalings_searched;
    scalings["skipped_infeasible"] = result.scalings_skipped_infeasible;
    scalings["pruned"] = result.scalings_pruned;
    out["scalings"] = std::move(scalings);
    out["best"] = result.best ? to_json(*result.best) : JsonValue();
    out["feasible_count"] = static_cast<std::uint64_t>(result.feasible_points.size());
    JsonValue front = JsonValue::array();
    for (const DsePoint& point : result.pareto_front) front.push_back(to_json(point));
    out["pareto_front"] = std::move(front);
    return out;
}

JsonValue to_json(const Problem& problem) {
    JsonValue out = JsonValue::object();
    JsonValue graph = JsonValue::object();
    graph["name"] = problem.graph().name();
    graph["tasks"] = static_cast<std::uint64_t>(problem.graph().task_count());
    graph["edges"] = static_cast<std::uint64_t>(problem.graph().edge_count());
    graph["batches"] = problem.graph().batch_count();
    out["graph"] = std::move(graph);
    JsonValue arch = JsonValue::object();
    arch["cores"] = static_cast<std::uint64_t>(problem.architecture().core_count());
    arch["scaling_levels"] =
        static_cast<std::uint64_t>(problem.architecture().scaling_table().level_count());
    out["architecture"] = std::move(arch);
    out["deadline_seconds"] = problem.deadline_seconds();
    out["exposure_policy"] =
        problem.exposure_policy() == ExposurePolicy::full_duration ? "full_duration"
                                                                   : "busy_only";
    return out;
}

JsonValue optimize_report_json(const Problem& problem, std::string_view strategy_name,
                               const DseResult& result) {
    JsonValue out = JsonValue::object();
    out["seamap_version"] = k_version_string;
    out["strategy"] = strategy_name;
    out["problem"] = to_json(problem);
    out["result"] = to_json(result);
    return out;
}

JsonValue to_json(const ExactMoments& stats) {
    JsonValue out = JsonValue::object();
    out["mean"] = stats.mean();
    out["stdev"] = stats.stdev();
    out["ci95_halfwidth"] = stats.ci95_halfwidth();
    out["min"] = stats.min();
    out["max"] = stats.max();
    out["hits"] = stats.sum();
    return out;
}

JsonValue to_json(const CampaignReport& report) {
    JsonValue out = JsonValue::object();
    out["trials"] = report.trials;
    out["shards"] = report.shards;
    // Emitted only for partial (cancelled) reports, so full-run
    // documents keep their historic schema byte-for-byte.
    if (report.shards_completed != report.shards)
        out["shards_completed"] = report.shards_completed;
    out["shard_size"] = report.shard_size;
    out["seed"] = report.seed;
    out["analytic_gamma"] = report.analytic_gamma;
    out["total"] = to_json(report.total_stats);
    JsonValue sites = JsonValue::object();
    // Fixed enum order keeps the document deterministic.
    for (std::size_t s = 0; s < k_fault_site_count; ++s) {
        const FaultSite site = static_cast<FaultSite>(s);
        const SiteReport& site_report = report.site(site);
        JsonValue keyed = JsonValue::object();
        keyed["analytic_gamma"] = site_report.analytic_gamma;
        keyed["mean"] = site_report.stats.mean();
        keyed["stdev"] = site_report.stats.stdev();
        keyed["ci95_halfwidth"] = site_report.stats.ci95_halfwidth();
        keyed["min"] = site_report.stats.min();
        keyed["max"] = site_report.stats.max();
        keyed["hits"] = site_report.stats.sum();
        sites[fault_site_name(site)] = std::move(keyed);
    }
    out["sites"] = std::move(sites);
    JsonValue per_core = JsonValue::array();
    for (const std::uint64_t hits : report.hits_per_core) per_core.push_back(hits);
    out["hits_per_core"] = std::move(per_core);
    JsonValue per_task = JsonValue::array();
    for (const std::uint64_t hits : report.hits_per_task) per_task.push_back(hits);
    out["hits_per_task"] = std::move(per_task);
    return out;
}

JsonValue to_json(const Error& error) {
    JsonValue out = JsonValue::object();
    out["code"] = error.code();
    out["message"] = error.message();
    if (!error.context().empty()) out["context"] = error.context();
    return out;
}

JsonValue campaign_report_json(const Problem& problem, std::string_view strategy_name,
                               const DsePoint* design, const CampaignReport* report) {
    JsonValue out = JsonValue::object();
    out["seamap_version"] = k_version_string;
    out["strategy"] = strategy_name;
    out["problem"] = to_json(problem);
    out["design"] = design ? to_json(*design) : JsonValue();
    if (design && report) out["campaign"] = to_json(*report);
    return out;
}

} // namespace seamap
