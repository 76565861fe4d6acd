// SearchStrategy factory contract: the two built-in engines sit behind
// the same interface, both are reachable by name, a custom strategy
// that implements only the EvalContext search plugs straight into the
// explorer, and — the acceptance bar — both built-ins produce feasible
// designs on the paper's fig8 and mpeg2 graphs through the public
// explore() facade.
#include "seamap/seamap.h"

#include "taskgraph/fig8.h"
#include "taskgraph/mpeg2.h"

#include <algorithm>
#include <chrono>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <stdexcept>

namespace seamap {
namespace {

Problem fig8_problem() {
    return ProblemBuilder()
        .graph(fig8_example_graph())
        .architecture(3, VoltageScalingTable::arm7_three_level())
        .deadline_seconds(k_fig8_deadline_seconds)
        .build();
}

Problem mpeg2_problem() {
    return ProblemBuilder()
        .graph(mpeg2_decoder_graph())
        .architecture(4, VoltageScalingTable::arm7_three_level())
        .deadline_seconds(mpeg2_deadline_seconds())
        .build();
}

TEST(StrategyRegistry, ListsBothBuiltins) {
    const auto names = search_strategy_names();
    EXPECT_NE(std::find(names.begin(), names.end(), "optimized"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "annealing"), names.end());
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(StrategyRegistry, UnknownNameThrowsAndNamesTheKnownOnes) {
    try {
        (void)make_search_strategy("no_such_engine");
        FAIL() << "should have thrown";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("no_such_engine"), std::string::npos);
        EXPECT_NE(what.find("optimized"), std::string::npos);
        EXPECT_NE(what.find("annealing"), std::string::npos);
    }
}

TEST(StrategyRegistry, BothBuiltinsFindFeasibleDesignsOnFig8) {
    for (const char* name : {"optimized", "annealing"}) {
        ExploreOptions options;
        options.strategy = name;
        options.dse.search.max_iterations = 2'000;
        options.dse.search.seed = 5;
        const DseResult result = explore(fig8_problem(), options);
        ASSERT_TRUE(result.best.has_value()) << name;
        EXPECT_TRUE(result.best->metrics.feasible) << name;
        EXPECT_GT(result.scalings_searched, 0u) << name;
    }
}

TEST(StrategyRegistry, BothBuiltinsFindFeasibleDesignsOnMpeg2) {
    for (const char* name : {"optimized", "annealing"}) {
        ExploreOptions options;
        options.strategy = name;
        options.dse.search.max_iterations = 2'000;
        options.dse.search.seed = 5;
        const DseResult result = explore(mpeg2_problem(), options);
        ASSERT_TRUE(result.best.has_value()) << name;
        EXPECT_TRUE(result.best->metrics.feasible) << name;
    }
}

TEST(StrategyRegistry, StrategiesAreDeterministicGivenTheSameSeed) {
    const Problem problem = fig8_problem();
    const EvaluationContext ctx = problem.evaluation_context({1, 2, 2});
    const Mapping initial = round_robin_mapping(problem.graph(), 3);
    for (const char* name : {"optimized", "annealing"}) {
        const auto strategy = make_search_strategy(name, {.max_iterations = 1'000});
        const LocalSearchResult a = strategy->search(ctx, initial, 11);
        const LocalSearchResult b = strategy->search(ctx, initial, 11);
        EXPECT_EQ(a.best_mapping, b.best_mapping) << name;
        EXPECT_EQ(a.best_metrics.gamma, b.best_metrics.gamma) << name;
        EXPECT_EQ(a.evaluations, b.evaluations) << name;
    }
}

/// A trivial engine: score the initial mapping, move nothing. Good
/// enough to prove a third-party strategy that implements only the
/// EvalContext search drives the full explorer.
class InitialOnlyStrategy final : public SearchStrategy {
public:
    std::string name() const override { return "initial_only"; }

    using SearchStrategy::search;
    LocalSearchResult search(EvalContext& eval, const Mapping& initial, std::uint64_t /*seed*/,
                             const CancellationToken* /*cancel*/ = nullptr) const override {
        LocalSearchResult result;
        result.best_mapping = initial;
        result.best_metrics = eval.rebase(initial);
        result.found_feasible = result.best_metrics.feasible;
        result.evaluations = 1;
        return result;
    }
};

TEST(StrategyRegistry, CustomStrategyPlugsIntoTheExplorer) {
    const Problem problem = fig8_problem();
    const InitialOnlyStrategy strategy;
    const DseResult result =
        DesignSpaceExplorer(problem.ser_model(), problem.exposure_policy())
            .explore(problem.graph(), problem.architecture(), problem.deadline_seconds(),
                     DseParams{}, strategy);
    // The stage-1 greedy mapping is feasible for at least one scaling
    // even without any local search.
    ASSERT_TRUE(result.best.has_value());
    EXPECT_TRUE(result.best->metrics.feasible);
    // Exactly one evaluation per searched scaling — the custom engine
    // really ran (the built-ins evaluate thousands of designs).
    EXPECT_EQ(result.scalings_searched + result.scalings_skipped_infeasible,
              result.scalings_enumerated);

    // The inherited EvaluationContext overload runs the strategy's one
    // search on a fresh EvalContext.
    const EvaluationContext ctx = problem.evaluation_context({1, 2, 2});
    const Mapping initial = round_robin_mapping(problem.graph(), 3);
    const LocalSearchResult cold = strategy.search(ctx, initial, 7);
    EvalContext fresh(ctx);
    const LocalSearchResult hot = strategy.search(fresh, initial, 7);
    EXPECT_EQ(cold.best_mapping, hot.best_mapping);
    EXPECT_EQ(cold.best_metrics.gamma, hot.best_metrics.gamma);
    EXPECT_EQ(cold.best_metrics.power_mw, hot.best_metrics.power_mw);
    EXPECT_EQ(cold.best_metrics.tm_seconds, hot.best_metrics.tm_seconds);
    EXPECT_EQ(cold.found_feasible, hot.found_feasible);
    EXPECT_EQ(cold.evaluations, hot.evaluations);
}

TEST(StrategyRegistry, AnnealingHonorsTokenDeadlines) {
    // A huge iteration budget capped by the caller's token deadline
    // must terminate promptly — the deadline reaches every search.
    ExploreOptions options;
    options.strategy = "annealing";
    options.dse.search.max_iterations = 50'000'000;
    CancellationToken cancel;
    cancel.set_budget_seconds(0.05);
    const auto start = std::chrono::steady_clock::now();
    const DseResult result = explore(fig8_problem(), options, nullptr, &cancel);
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed.count(), 5.0);
    EXPECT_LE(result.scalings_searched, result.scalings_enumerated);
}

TEST(StrategyRegistry, ZeroIterationsIsRejectedForBothBuiltins) {
    for (const char* name : {"optimized", "annealing"}) {
        LocalSearchParams options;
        options.max_iterations = 0;
        EXPECT_THROW((void)make_search_strategy(name, options), std::invalid_argument)
            << name;
    }
}

TEST(StrategyRegistry, NanSwapProbabilityIsRejectedForBothBuiltins) {
    for (const char* name : {"optimized", "annealing"}) {
        LocalSearchParams options;
        options.swap_probability = std::numeric_limits<double>::quiet_NaN();
        EXPECT_THROW((void)make_search_strategy(name, options), std::invalid_argument)
            << name;
    }
}

TEST(StrategyRegistry, BothBuiltinsCountEveryLoopIterationOnOneCore) {
    // On one core no neighbour changes the mapping, so every annealing
    // step is skipped unevaluated — the annealer still ran, and
    // reports, its whole iteration budget, as Fig. 7 does.
    const Problem problem = ProblemBuilder()
                                .graph(fig8_example_graph())
                                .architecture(1, VoltageScalingTable::arm7_three_level())
                                .deadline_seconds(k_fig8_deadline_seconds)
                                .build();
    const EvaluationContext ctx = problem.evaluation_context({1});
    const Mapping initial = round_robin_mapping(problem.graph(), 1);
    for (const char* name : {"optimized", "annealing"}) {
        const auto strategy = make_search_strategy(name, {.max_iterations = 500});
        const LocalSearchResult result = strategy->search(ctx, initial, 1);
        EXPECT_EQ(result.iterations_run, 500u) << name;
    }
}

TEST(StrategyRegistry, AnnealingHonorsCancellation) {
    const Problem problem = mpeg2_problem();
    const EvaluationContext ctx = problem.evaluation_context({1, 1, 1, 1});
    const Mapping initial = round_robin_mapping(problem.graph(), 4);
    CancellationToken cancel;
    cancel.request_stop();
    const auto strategy = make_search_strategy("annealing", {.max_iterations = 1'000'000});
    const LocalSearchResult result = strategy->search(ctx, initial, 1, &cancel);
    // Pre-cancelled: the walk stops immediately after scoring the
    // start point instead of burning a million iterations.
    EXPECT_EQ(result.iterations_run, 0u);
}

} // namespace
} // namespace seamap
