#include "core/optimized_mapping.h"

#include "core/search_strategy.h"
#include "util/rng.h"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace seamap {

void validate(const LocalSearchParams& params) {
    if (params.max_iterations == 0)
        throw std::invalid_argument("LocalSearchParams: max_iterations must be > 0");
    if (!(params.swap_probability >= 0.0 && params.swap_probability <= 1.0))
        throw std::invalid_argument("LocalSearchParams: swap_probability must be in [0, 1]");
}

OptimizedMappingStrategy::OptimizedMappingStrategy(LocalSearchParams params)
    : params_(params) {
    validate(params_);
}

std::string OptimizedMappingStrategy::name() const { return "optimized"; }

LocalSearchResult OptimizedMappingStrategy::search(EvalContext& eval, const Mapping& initial,
                                                   std::uint64_t seed,
                                                   const CancellationToken* cancel) const {
    if (!initial.complete())
        throw std::invalid_argument("OptimizedMappingStrategy: initial mapping incomplete");
    const EvaluationContext& ctx = eval.problem();

    auto stopped = [&] { return cancel != nullptr && cancel->stop_requested(); };

    Rng rng(seed);
    Mapping current = initial;                           // step A
    DesignMetrics current_metrics = eval.rebase(current); // list schedule M

    LocalSearchResult result;
    result.best_mapping = current;
    result.best_metrics = current_metrics;
    result.found_feasible = current_metrics.feasible;
    result.evaluations = 1;

    // Steps E-F: a feasible design with fewer expected SEUs becomes the
    // new best; until anything is feasible, track the least-infeasible.
    // `make_mapping` materializes the candidate only when it is
    // actually retained — neighbourhood candidates are otherwise
    // evaluated incrementally without building a Mapping.
    auto consider_best = [&](const DesignMetrics& metrics, auto&& make_mapping) {
        const bool improves = metrics.feasible &&
                              (!result.found_feasible ||
                               metrics.gamma < result.best_metrics.gamma);
        if (improves) {
            result.best_mapping = make_mapping();
            result.best_metrics = metrics;
            result.found_feasible = true;
            ++result.improvements;
        } else if (!result.found_feasible &&
                   metrics.tm_seconds < result.best_metrics.tm_seconds) {
            result.best_mapping = make_mapping();
            result.best_metrics = metrics;
        }
    };
    // Walk ordering: feasibility first, then fewer expected SEUs.
    auto walk_improves = [](const DesignMetrics& candidate, const DesignMetrics& reference) {
        if (!reference.feasible)
            return candidate.feasible || candidate.tm_seconds < reference.tm_seconds;
        return candidate.feasible && candidate.gamma < reference.gamma;
    };
    // The paper's systematic pass: try every single-task move from the
    // current mapping and take the best strict improvement. Each
    // candidate is a single move off the rebased current mapping, so it
    // is exactly the suffix-reschedule case. One that provably improves
    // neither the running best nor the result is skipped unscheduled; it
    // still counts as an evaluation.
    Mapping scratch_mapping;
    auto sweep = [&]() {
        DesignMetrics best_metrics = current_metrics;
        TaskId best_task = 0;
        CoreId best_core = 0;
        bool found = false;
        for (TaskId t = 0; t < ctx.graph.task_count() && !stopped(); ++t) {
            const CoreId original = current.core_of(t);
            if (params_.require_all_cores && current.task_count_on(original) == 1)
                continue; // moving t would empty its core
            for (CoreId core = 0; core < ctx.arch.core_count() && !stopped(); ++core) {
                if (core == original) continue;
                const std::optional<DesignMetrics> metrics =
                    eval.evaluate_bounded(NeighborOp::move(t, core), best_metrics,
                                          result.best_metrics);
                ++result.evaluations;
                if (!metrics) continue;
                consider_best(*metrics, [&]() -> const Mapping& {
                    scratch_mapping = current;
                    scratch_mapping.assign(t, core);
                    return scratch_mapping;
                });
                if (walk_improves(*metrics, best_metrics)) {
                    best_task = t;
                    best_core = core;
                    best_metrics = *metrics;
                    found = true;
                }
            }
        }
        if (found) {
            current.assign(best_task, best_core);
            current_metrics = best_metrics;
            eval.rebase(current);
        }
    };

    // Restart scheduling: the iteration budget is divided evenly;
    // restart k > 0 begins from a perturbed copy of `initial`.
    const std::uint64_t restarts = std::max<std::uint64_t>(1, params_.restarts);
    const std::uint64_t restart_period =
        std::max<std::uint64_t>(1, params_.max_iterations / restarts);
    auto restart_walk = [&]() {
        current = initial;
        const auto kicks = std::max<std::size_t>(2, ctx.graph.task_count() / 2);
        for (std::size_t k = 0; k < kicks; ++k)
            random_neighbor_op(current, rng, params_.swap_probability,
                               params_.require_all_cores);
        current_metrics = eval.rebase(current);
        ++result.evaluations;
        consider_best(current_metrics, [&]() -> const Mapping& { return current; });
    };

    Mapping neighbor;
    std::uint64_t iteration = 0;
    while (iteration < params_.max_iterations && !stopped()) { // step B
        ++iteration;
        if (iteration % restart_period == 0 &&
            iteration + restart_period <= params_.max_iterations) {
            restart_walk();
            continue;
        }
        if (params_.sweep_interval > 0 && iteration % params_.sweep_interval == 0) {
            sweep();
            continue;
        }
        neighbor = current; // step C: neighbouring task movement
        const NeighborOp op = random_neighbor_op(neighbor, rng, params_.swap_probability,
                                                 params_.require_all_cores);
        if (op.none()) continue; // mapping unchanged
        const DesignMetrics metrics = eval.evaluate_neighbor(op); // step D
        ++result.evaluations;
        consider_best(metrics, [&]() -> const Mapping& { return neighbor; });

        // Walk policy: move toward feasibility first, then toward lower
        // Gamma, with annealed acceptance of worse steps. The cooling
        // progress is measured within the current restart segment so
        // every restart begins hot again.
        bool step = walk_improves(metrics, current_metrics);
        if (!step) {
            double relative_worsening;
            if (!current_metrics.feasible) {
                relative_worsening = metrics.tm_seconds / current_metrics.tm_seconds - 1.0;
            } else if (!metrics.feasible) {
                relative_worsening = 1.0; // leaving the feasible region is heavily damped
            } else {
                relative_worsening = metrics.gamma / current_metrics.gamma - 1.0;
            }
            const double progress = static_cast<double>(iteration % restart_period) /
                                    static_cast<double>(restart_period);
            const double temperature =
                k_initial_temperature *
                std::exp(std::log(k_final_temperature / k_initial_temperature) * progress);
            step = rng.uniform() < std::exp(-relative_worsening / temperature);
        }
        if (step) {
            std::swap(current, neighbor); // keeps neighbor's storage alive for reuse
            current_metrics = metrics;
            eval.rebase(current);
        }
    }
    result.iterations_run = iteration;
    return result;
}

} // namespace seamap
