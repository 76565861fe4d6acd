// Fig. 4 exploration semantics, driven through the public API facade
// (ProblemBuilder -> explore) so the tests pin the surface users call;
// pareto_front_of keeps its direct unit coverage.
#include "seamap/seamap.h"

#include "taskgraph/fig8.h"
#include "taskgraph/mpeg2.h"

#include <chrono>
#include <gtest/gtest.h>

namespace seamap {
namespace {

Problem problem_for(const TaskGraph& graph, std::size_t cores, double deadline) {
    return ProblemBuilder()
        .graph(graph)
        .architecture(cores, VoltageScalingTable::arm7_three_level())
        .deadline_seconds(deadline)
        .build();
}

ExploreOptions quick_options(std::uint64_t iterations = 800) {
    ExploreOptions options;
    options.dse.search.max_iterations = iterations;
    options.dse.search.seed = 1;
    return options;
}

TEST(Dse, ExploresAllScalingCombinationsOnFig8) {
    const DseResult result =
        explore(problem_for(fig8_example_graph(), 3, 1.0), quick_options());
    // C(3+3-1, 2) = 10 combinations; with a loose 1 s deadline none are
    // skipped and all are searched.
    EXPECT_EQ(result.scalings_enumerated, 10u);
    EXPECT_EQ(result.scalings_skipped_infeasible, 0u);
    EXPECT_EQ(result.scalings_searched, 10u);
    ASSERT_TRUE(result.best.has_value());
    EXPECT_TRUE(result.best->metrics.feasible);
}

TEST(Dse, BestIsMinimumPowerAmongFeasible) {
    const DseResult result =
        explore(problem_for(fig8_example_graph(), 3, 0.2), quick_options());
    ASSERT_TRUE(result.best.has_value());
    for (const DsePoint& point : result.feasible_points)
        EXPECT_GE(point.metrics.power_mw,
                  result.best->metrics.power_mw * (1.0 - 1e-9));
}

TEST(Dse, LooseDeadlinePicksDeepScaling) {
    // With an extremely loose deadline the cheapest design runs every
    // core at the slowest level (or leaves cores empty).
    const DseResult result =
        explore(problem_for(fig8_example_graph(), 2, 1e6), quick_options());
    ASSERT_TRUE(result.best.has_value());
    // The all-slowest combination is feasible, so nothing cheaper exists.
    const DsePoint* slowest = nullptr;
    for (const DsePoint& p : result.feasible_points)
        if (p.levels == ScalingVector{3, 3}) slowest = &p;
    ASSERT_NE(slowest, nullptr);
    EXPECT_LE(result.best->metrics.power_mw, slowest->metrics.power_mw * (1.0 + 1e-9));
}

TEST(Dse, TightDeadlineSkipsSlowScalings) {
    const TaskGraph graph = fig8_example_graph();
    // A deadline moderately above the nominal-speed critical path:
    // tight enough that the slowest scaling combinations cannot make it
    // under any mapping (pre-skipped), loose enough that fast ones can.
    const double critical_path_seconds =
        static_cast<double>(graph.critical_path_cycles(false)) / 200e6;
    const DseResult result = explore(problem_for(graph, 3, critical_path_seconds * 1.5),
                                     quick_options(1'500));
    EXPECT_GT(result.scalings_skipped_infeasible, 0u);
    ASSERT_TRUE(result.best.has_value());
    EXPECT_TRUE(result.best->metrics.feasible);
}

TEST(Dse, ImpossibleDeadlineYieldsNoBest) {
    const DseResult result =
        explore(problem_for(fig8_example_graph(), 3, 1e-9), quick_options());
    EXPECT_FALSE(result.best.has_value());
    EXPECT_TRUE(result.feasible_points.empty());
    EXPECT_EQ(result.scalings_skipped_infeasible, result.scalings_enumerated);
}

TEST(Dse, ParetoFrontIsNonDominatedAndSorted) {
    const DseResult result = explore(
        problem_for(mpeg2_decoder_graph(), 4, mpeg2_deadline_seconds()), quick_options(600));
    ASSERT_FALSE(result.pareto_front.empty());
    for (std::size_t i = 1; i < result.pareto_front.size(); ++i) {
        EXPECT_GE(result.pareto_front[i].metrics.power_mw,
                  result.pareto_front[i - 1].metrics.power_mw);
        // More power only stays on the front if it buys fewer SEUs.
        EXPECT_LT(result.pareto_front[i].metrics.gamma,
                  result.pareto_front[i - 1].metrics.gamma);
    }
    for (const DsePoint& front_point : result.pareto_front)
        for (const DsePoint& other : result.feasible_points) {
            const bool dominates = other.metrics.power_mw < front_point.metrics.power_mw &&
                                   other.metrics.gamma < front_point.metrics.gamma;
            EXPECT_FALSE(dominates);
        }
}

/// The round-robin start ablation: the Fig. 7 search run from a
/// round-robin mapping instead of the Fig. 6 start the explorer hands it.
class RoundRobinStartStrategy final : public SearchStrategy {
public:
    explicit RoundRobinStartStrategy(LocalSearchParams params) : inner_(params) {}
    std::string name() const override { return "round_robin_start"; }
    LocalSearchResult search(EvalContext& eval, const Mapping&, std::uint64_t seed,
                             const CancellationToken* cancel) const override {
        const EvaluationContext& ctx = eval.problem();
        return inner_.search(eval, round_robin_mapping(ctx.graph, ctx.arch.core_count()), seed,
                             cancel);
    }

private:
    OptimizedMappingStrategy inner_;
};

TEST(Dse, RoundRobinSeedAblationStillWorks) {
    const Problem problem = problem_for(fig8_example_graph(), 3, 1.0);
    const DseParams params = quick_options().dse;
    const RoundRobinStartStrategy strategy(params.search);
    const DseResult result =
        DesignSpaceExplorer(problem.ser_model(), problem.exposure_policy())
            .explore(problem.graph(), problem.architecture(), problem.deadline_seconds(), params,
                     strategy);
    EXPECT_TRUE(result.best.has_value());
}

TEST(Dse, TokenDeadlineLimitsWork) {
    // The caller's token deadline is the exploration's only wall-clock
    // limit: it cuts an enormous per-scaling budget short.
    const ExploreOptions options = quick_options(200'000);
    CancellationToken cancel;
    cancel.set_budget_seconds(0.05);
    const auto start = std::chrono::steady_clock::now();
    const DseResult result =
        explore(problem_for(mpeg2_decoder_graph(), 4, mpeg2_deadline_seconds()), options,
                nullptr, &cancel);
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed.count(), 5.0);
    EXPECT_LE(result.scalings_searched, result.scalings_enumerated);
    EXPECT_LT(result.scalings_enumerated, result.scalings_total);
}

TEST(Dse, LegacyExplorerEntryPointMatchesTheFacade) {
    // DesignSpaceExplorer::explore with an explicit
    // OptimizedMappingStrategy must behave exactly like the facade's
    // name-built "optimized" path — with non-default Fig. 7 tuning, so
    // a factory that dropped fields like restarts/sweep_interval would
    // be caught here.
    const TaskGraph graph = fig8_example_graph();
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
    DseParams params;
    params.search.max_iterations = 800;
    params.search.seed = 1;
    params.search.restarts = 1;
    params.search.sweep_interval = 7;
    params.search.swap_probability = 0.45;
    const DseResult direct = DesignSpaceExplorer{SerModel{}}.explore(
        graph, arch, 0.2, params, OptimizedMappingStrategy(params.search));
    ExploreOptions options;
    options.dse = params;
    const DseResult facade = explore(problem_for(fig8_example_graph(), 3, 0.2), options);
    ASSERT_EQ(direct.best.has_value(), facade.best.has_value());
    ASSERT_TRUE(direct.best.has_value());
    EXPECT_EQ(direct.best->levels, facade.best->levels);
    EXPECT_EQ(direct.best->mapping, facade.best->mapping);
    EXPECT_EQ(direct.best->metrics.gamma, facade.best->metrics.gamma);
    EXPECT_EQ(direct.feasible_points.size(), facade.feasible_points.size());
}

TEST(Dse, ScalingSpaceBeyond64BitsIsAStructuredError) {
    // 300 cores x 12 levels: C(311, 11) ~ 5.5e19 combinations, past
    // 2^64. The explorer must refuse with seamap::Error before sizing
    // anything by that count (never std::bad_alloc).
    std::vector<double> f_mhz;
    for (int level = 0; level < 12; ++level) f_mhz.push_back(200.0 - 15.0 * level);
    const Problem problem = ProblemBuilder()
                                .graph(fig8_example_graph())
                                .architecture(300, VoltageScalingTable::from_frequencies(f_mhz))
                                .deadline_seconds(1.0)
                                .build();
    ExploreOptions options = quick_options(10);
    options.dse.num_threads = 1;
    try {
        (void)explore(problem, options);
        FAIL() << "explore() accepted a scaling space past 2^64 slots";
    } catch (const Error& error) {
        EXPECT_EQ(error.category(), ErrorCategory::invalid_argument) << error.what();
    }
}

TEST(ParetoFrontOf, FiltersDominatedPoints) {
    auto make_point = [](double power, double gamma) {
        DsePoint p;
        p.metrics.power_mw = power;
        p.metrics.gamma = gamma;
        return p;
    };
    const auto front = pareto_front_of(
        {make_point(1.0, 10.0), make_point(2.0, 5.0), make_point(3.0, 6.0),
         make_point(1.5, 10.0), make_point(4.0, 1.0)});
    ASSERT_EQ(front.size(), 3u);
    EXPECT_DOUBLE_EQ(front[0].metrics.power_mw, 1.0);
    EXPECT_DOUBLE_EQ(front[1].metrics.power_mw, 2.0);
    EXPECT_DOUBLE_EQ(front[2].metrics.power_mw, 4.0);
}

} // namespace
} // namespace seamap
