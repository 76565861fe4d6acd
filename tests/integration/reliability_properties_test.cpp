// Property-based invariants tying the reliability stack together:
// analytic Gamma (eq. 3) == expected value of the Poisson injector,
// register-usage monotonicity, and the Section III trade-off existing
// on real workloads.
#include "core/initial_mapping.h"
#include "reliability/design_eval.h"
#include "reliability/register_usage.h"
#include "sim/campaign.h"
#include "taskgraph/mpeg2.h"
#include "tgff/random_graph.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <tuple>

namespace seamap {
namespace {

Mapping random_mapping(const TaskGraph& graph, std::size_t cores, Rng& rng) {
    Mapping mapping(graph.task_count(), cores);
    for (TaskId t = 0; t < graph.task_count(); ++t)
        mapping.assign(t, static_cast<CoreId>(
                              rng.uniform_int(0, static_cast<std::int64_t>(cores) - 1)));
    return mapping;
}

class ReliabilityProperties
    : public testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(ReliabilityProperties, AnalyticGammaEqualsInjectorExpectation) {
    const auto [task_count, seed] = GetParam();
    TgffParams params;
    params.task_count = task_count;
    const TaskGraph graph = generate_tgff_graph(params, seed);
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
    Rng rng(seed + 5);
    const Mapping mapping = random_mapping(graph, 3, rng);
    const ScalingVector levels = {1, 2, 3};
    const Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, levels);

    for (const auto& [policy, sim_policy] :
         {std::pair{ExposurePolicy::full_duration, SimExposurePolicy::full_duration},
          std::pair{ExposurePolicy::busy_only, SimExposurePolicy::busy_only}}) {
        const SeuEstimator estimator{SerModel{}, policy};
        const double analytic =
            estimator.estimate(graph, mapping, arch, levels, schedule).total;
        CampaignConfig config;
        config.trials = 1;
        config.seed = seed;
        config.policy = sim_policy;
        config.weights = FaultSiteWeights::register_file_only();
        const CampaignReport campaign =
            CampaignEngine(SerModel{}, config).run(graph, mapping, arch, levels, schedule);
        // The campaign's analytic reference must equal the estimator's
        // value bit-for-bit in double precision terms.
        EXPECT_NEAR(campaign.analytic_gamma, analytic, analytic * 1e-9);
    }
}

TEST_P(ReliabilityProperties, SpreadingNeverReducesTotalRegisterBits) {
    const auto [task_count, seed] = GetParam();
    TgffParams params;
    params.task_count = task_count;
    const TaskGraph graph = generate_tgff_graph(params, seed);
    Rng rng(seed + 99);
    // Take a random mapping and split one multi-task core in two; the
    // total register usage must not shrink (eq. 8 union semantics).
    const std::size_t cores = 4;
    Mapping mapping = random_mapping(graph, cores, rng);
    const std::uint64_t before = total_register_bits(graph, mapping, cores);

    // Move every other task of core 0 to core 3's tail.
    const auto tasks = mapping.tasks_on(0);
    for (std::size_t i = 0; i < tasks.size(); i += 2) mapping.assign(tasks[i], 3);
    Mapping merged = mapping;
    for (TaskId t = 0; t < graph.task_count(); ++t)
        if (merged.core_of(t) == 3) merged.assign(t, 0);
    // merged co-locates everything from cores 0 and 3 again.
    EXPECT_LE(total_register_bits(graph, merged, cores),
              total_register_bits(graph, mapping, cores) + 0u);
    (void)before;
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorkloads, ReliabilityProperties,
    testing::Combine(testing::Values<std::size_t>(10, 25, 60),
                     testing::Values<std::uint64_t>(3, 8, 21)),
    [](const testing::TestParamInfo<ReliabilityProperties::ParamType>& param_info) {
        std::string label; label += "n"; label += std::to_string(std::get<0>(param_info.param)); label += "_s"; label += std::to_string(std::get<1>(param_info.param)); return label;
    });

TEST(ReliabilityTradeoff, Mpeg2LocalizeVsDistributeTension) {
    // Section III, Observation 1: the localized mapping minimizes R but
    // maximizes T_M; the distributed mapping does the reverse.
    const TaskGraph graph = mpeg2_decoder_graph();
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const ScalingVector levels = {1, 1, 1, 1};

    const Mapping localized = single_core_mapping(graph, 4);
    const Mapping distributed = round_robin_mapping(graph, 4);
    const Schedule s_loc = ListScheduler{}.schedule(graph, localized, arch, levels);
    const Schedule s_dist = ListScheduler{}.schedule(graph, distributed, arch, levels);

    EXPECT_LT(total_register_bits(graph, localized, 4),
              total_register_bits(graph, distributed, 4));
    EXPECT_GT(s_loc.total_time_seconds, s_dist.total_time_seconds);
}

TEST(ReliabilityTradeoff, GammaIsNotMinimizedAtEitherExtreme) {
    // Section III, Observation 2: the minimum-Gamma mapping lies
    // strictly between full localization and full distribution. We
    // check that the greedy stage-1 mapping (a middle-ground design)
    // beats at least one of the two extremes, and that the extremes
    // do not jointly dominate.
    const TaskGraph graph = mpeg2_decoder_graph();
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const ScalingVector levels = {1, 1, 1, 1};
    const EvaluationContext ctx{graph, arch, levels, SeuEstimator{SerModel{}},
                                mpeg2_deadline_seconds()};

    const double gamma_localized =
        evaluate_design(ctx, single_core_mapping(graph, 4)).gamma;
    const double gamma_distributed =
        evaluate_design(ctx, round_robin_mapping(graph, 4)).gamma;
    const double gamma_greedy = evaluate_design(ctx, initial_sea_mapping(ctx)).gamma;

    EXPECT_LT(gamma_greedy, std::max(gamma_localized, gamma_distributed));
}

TEST(ReliabilityTradeoff, VoltageScalingRaisesGammaForFixedMapping) {
    // Fig. 3(b) vs (c): scaling the same design down raises Gamma.
    const TaskGraph graph = mpeg2_decoder_graph();
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const Mapping mapping = round_robin_mapping(graph, 4);
    const SeuEstimator estimator{SerModel{}};
    double previous = 0.0;
    for (const ScalingLevel level : {ScalingLevel{1}, ScalingLevel{2}, ScalingLevel{3}}) {
        const ScalingVector levels(4, level);
        const Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, levels);
        const double gamma =
            estimator.estimate(graph, mapping, arch, levels, schedule).total;
        EXPECT_GT(gamma, previous);
        previous = gamma;
    }
}

} // namespace
} // namespace seamap
