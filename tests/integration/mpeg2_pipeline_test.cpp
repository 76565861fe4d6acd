// End-to-end run of the full paper pipeline on the MPEG-2 decoder
// through the public API: Problem -> explore (Fig. 4) -> best design ->
// fault-injection measurement, checking the headline qualitative
// claims of Section V on our substrate.
#include "seamap/seamap.h"

#include "core/initial_mapping.h"
#include "sim/campaign.h"
#include "taskgraph/mpeg2.h"

#include <gtest/gtest.h>

#include <cmath>

namespace seamap {
namespace {

Problem mpeg2_problem(std::size_t cores, double deadline) {
    return ProblemBuilder()
        .graph(mpeg2_decoder_graph())
        .architecture(cores, VoltageScalingTable::arm7_three_level())
        .deadline_seconds(deadline)
        .build();
}

ExploreOptions pipeline_options() {
    ExploreOptions options;
    options.dse.search.max_iterations = 1'500;
    options.dse.search.seed = 2024;
    return options;
}

TEST(Mpeg2Pipeline, DseFindsAScaledDownFeasibleDesign) {
    const Problem problem = mpeg2_problem(4, mpeg2_deadline_seconds());
    const DseResult result = explore(problem, pipeline_options());
    ASSERT_TRUE(result.best.has_value());
    EXPECT_TRUE(result.best->metrics.feasible);

    // DVS must have kicked in: the chosen design is cheaper than the
    // same mapping at all-nominal speed.
    const EvaluationContext nominal =
        problem.evaluation_context(ScalingVector(problem.architecture().core_count(), 1));
    const DesignMetrics nominal_metrics = evaluate_design(nominal, result.best->mapping);
    EXPECT_LT(result.best->metrics.power_mw, nominal_metrics.power_mw);
    // And at least one core actually runs below nominal.
    bool any_scaled = false;
    for (ScalingLevel level : result.best->levels) any_scaled |= level > 1;
    EXPECT_TRUE(any_scaled);
}

TEST(Mpeg2Pipeline, AnnealingStrategyAlsoClosesTheLoop) {
    // The SA baseline behind the same SearchStrategy contract must
    // drive the full DSE to a feasible, voltage-scaled design too.
    ExploreOptions options = pipeline_options();
    options.strategy = "annealing";
    const Problem problem = mpeg2_problem(4, mpeg2_deadline_seconds());
    const DseResult result = explore(problem, options);
    ASSERT_TRUE(result.best.has_value());
    EXPECT_TRUE(result.best->metrics.feasible);
    bool any_scaled = false;
    for (ScalingLevel level : result.best->levels) any_scaled |= level > 1;
    EXPECT_TRUE(any_scaled);
}

TEST(Mpeg2Pipeline, ProposedMapperBeatsParallelismBaselineOnGamma) {
    // The Fig. 9 headline: at the same voltage scaling, the soft
    // error-aware mapping experiences fewer SEUs than the
    // parallelism-optimized (Exp:2) baseline mapping. The proposed
    // side runs through the public strategy interface; the baseline
    // anneals on makespan (Exp:2), which the built-in Gamma-annealing
    // entry deliberately does not model, so it is driven directly.
    const Problem problem = mpeg2_problem(4, mpeg2_deadline_seconds());
    const TaskGraph& graph = problem.graph();
    const ScalingVector levels = {2, 2, 3, 2}; // Table II's chosen scaling
    const EvaluationContext ctx = problem.evaluation_context(levels);

    const auto proposed_strategy =
        make_search_strategy("optimized", {.max_iterations = 6'000});
    const LocalSearchResult proposed =
        proposed_strategy->search(ctx, initial_sea_mapping(ctx), 99);
    ASSERT_TRUE(proposed.found_feasible);

    LocalSearchParams sa;
    sa.max_iterations = 6'000;
    sa.seed = 99;
    const AnnealingStrategy parallelism_strategy(sa, MappingObjective::makespan);
    const LocalSearchResult parallelism =
        parallelism_strategy.search(ctx, round_robin_mapping(graph, 4), 99);
    ASSERT_TRUE(parallelism.found_feasible);

    EXPECT_LT(proposed.best_metrics.gamma, parallelism.best_metrics.gamma);
}

TEST(Mpeg2Pipeline, FaultInjectionConfirmsAnalyticRanking) {
    // Measure two designs with the register-file campaign and check the
    // *measured* ordering matches the analytic Gamma ordering — the
    // paper's optimization-vs-measurement loop.
    const Problem problem = mpeg2_problem(4, mpeg2_deadline_seconds());
    const TaskGraph& graph = problem.graph();
    const MpsocArchitecture& arch = problem.architecture();
    const ScalingVector levels = {2, 2, 3, 2};
    const EvaluationContext ctx = problem.evaluation_context(levels);

    const auto strategy = make_search_strategy("optimized", {.max_iterations = 4'000});
    const LocalSearchResult good = strategy->search(ctx, initial_sea_mapping(ctx), 7);
    ASSERT_TRUE(good.found_feasible);
    const Mapping bad = round_robin_mapping(graph, 4);
    const DesignMetrics bad_metrics = evaluate_design(ctx, bad);
    ASSERT_LT(good.best_metrics.gamma, bad_metrics.gamma);

    CampaignConfig config;
    config.trials = 60;
    config.seed = 314;
    config.weights = FaultSiteWeights::register_file_only();
    const CampaignEngine engine(problem.ser_model(), config);
    const Schedule good_schedule =
        ListScheduler{}.schedule(graph, good.best_mapping, arch, levels);
    const Schedule bad_schedule = ListScheduler{}.schedule(graph, bad, arch, levels);
    const CampaignReport good_campaign =
        engine.run(graph, good.best_mapping, arch, levels, good_schedule);
    const CampaignReport bad_campaign = engine.run(graph, bad, arch, levels, bad_schedule);
    EXPECT_LT(good_campaign.total_stats.mean(), bad_campaign.total_stats.mean());
    // Measured means track their analytic predictions.
    EXPECT_NEAR(good_campaign.total_stats.mean(), good_campaign.analytic_gamma,
                5.0 * std::sqrt(good_campaign.analytic_gamma / 60.0));
}

TEST(Mpeg2Pipeline, MoreCoresMeansMoreSeusAtTheChosenDesign) {
    // Table III's second observation: with more cores the DSE scales
    // voltages deeper and duplicates more registers, so the chosen
    // design experiences more SEUs. The deadline must *bind* for the
    // effect to appear (see ROADMAP.md item 13 on deadline normalization):
    // 1.25x the two-core nominal-speed capacity forces 2 cores to run
    // near nominal voltage while 6 cores reach the slowest level.
    const TaskGraph graph = mpeg2_decoder_graph();
    const double deadline =
        1.25 * static_cast<double>(graph.total_exec_cycles()) / (2.0 * 200e6);
    double previous_gamma = 0.0;
    for (const std::size_t cores : {2u, 6u}) {
        const DseResult result = explore(mpeg2_problem(cores, deadline), pipeline_options());
        ASSERT_TRUE(result.best.has_value()) << cores << " cores";
        if (previous_gamma > 0.0) { EXPECT_GT(result.best->metrics.gamma, previous_gamma); }
        previous_gamma = result.best->metrics.gamma;
    }
}

} // namespace
} // namespace seamap
