#include "baseline/simulated_annealing.h"

#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace seamap {

namespace {

/// Relative cost penalty per unit of deadline violation.
constexpr double k_infeasibility_penalty = 10.0;

/// Penalized scalar cost: objective inflated by the relative deadline
/// violation (cost *= 1 + penalty * violation_fraction) so the annealer
/// is pulled toward feasibility but can walk through infeasible regions.
double penalized_cost(MappingObjective objective, const DesignMetrics& metrics,
                      double deadline_seconds) {
    const double base = objective_value(objective, metrics);
    if (metrics.feasible || deadline_seconds <= 0.0) return base;
    const double violation = metrics.tm_seconds / deadline_seconds - 1.0;
    return base * (1.0 + k_infeasibility_penalty * violation);
}

} // namespace

AnnealingStrategy::AnnealingStrategy(LocalSearchParams params, MappingObjective objective)
    : params_(params), objective_(objective) {
    validate(params_);
}

std::string AnnealingStrategy::name() const { return "annealing"; }

LocalSearchResult AnnealingStrategy::search(EvalContext& eval, const Mapping& initial,
                                            std::uint64_t seed,
                                            const CancellationToken* cancel) const {
    if (!initial.complete())
        throw std::invalid_argument("AnnealingStrategy: initial mapping incomplete");
    const double deadline_seconds = eval.problem().deadline_seconds;

    Rng rng(seed);
    Mapping current = initial;
    DesignMetrics current_metrics = eval.rebase(current);
    double current_cost = penalized_cost(objective_, current_metrics, deadline_seconds);

    LocalSearchResult result;
    result.best_mapping = current;
    result.best_metrics = current_metrics;
    result.found_feasible = current_metrics.feasible;
    result.evaluations = 1;

    // Best tracking: feasible designs compare by objective; infeasible
    // ones (only used until the first feasible design appears) by T_M.
    auto better_than_best = [&](const DesignMetrics& metrics) {
        if (metrics.feasible && !result.found_feasible) return true;
        if (metrics.feasible == result.found_feasible) {
            if (result.found_feasible)
                return objective_value(objective_, metrics) <
                       objective_value(objective_, result.best_metrics);
            return metrics.tm_seconds < result.best_metrics.tm_seconds;
        }
        return false;
    };

    const double cooling_exponent = std::log(k_final_temperature / k_initial_temperature);
    auto stopped = [&] { return cancel != nullptr && cancel->stop_requested(); };
    Mapping neighbor;
    std::uint64_t iter = 0;
    for (; iter < params_.max_iterations && !stopped(); ++iter) {
        const double progress =
            static_cast<double>(iter) / static_cast<double>(params_.max_iterations);
        const double temperature = k_initial_temperature * std::exp(cooling_exponent * progress);

        neighbor = current;
        const NeighborOp op = random_neighbor_op(neighbor, rng, params_.swap_probability,
                                                 params_.require_all_cores);
        if (op.none()) continue; // mapping unchanged
        const DesignMetrics neighbor_metrics = eval.evaluate_neighbor(op);
        ++result.evaluations;
        const double neighbor_cost =
            penalized_cost(objective_, neighbor_metrics, deadline_seconds);

        const double relative_delta =
            current_cost > 0.0 ? (neighbor_cost - current_cost) / current_cost
                               : neighbor_cost - current_cost;
        const bool accept = relative_delta <= 0.0 ||
                            rng.uniform() < std::exp(-relative_delta / temperature);
        if (accept) {
            std::swap(current, neighbor); // keeps neighbor's storage alive for reuse
            current_metrics = neighbor_metrics;
            current_cost = neighbor_cost;
            eval.accept(op);
            ++result.improvements;
            if (better_than_best(current_metrics)) {
                result.best_mapping = current;
                result.best_metrics = current_metrics;
                result.found_feasible |= current_metrics.feasible;
            }
        }
    }
    result.iterations_run = iter;
    return result;
}

} // namespace seamap
