#include "sim/fault_injection.h"

#include "reliability/seu_estimator.h"
#include "sim/campaign.h"
#include "taskgraph/fig8.h"
#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace seamap {
namespace {

struct Fixture {
    TaskGraph graph = fig8_example_graph();
    MpsocArchitecture arch{3, VoltageScalingTable::arm7_three_level()};
    ScalingVector levels = {1, 2, 2};
    Mapping mapping = round_robin_mapping(graph, 3);
    Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, levels);
    SerModel ser;
};

/// The register-file-only campaign (`seamap_cli inject`) on the fixture.
CampaignReport register_file_campaign(const Fixture& f, SimExposurePolicy policy,
                                      std::uint64_t trials, std::uint64_t seed) {
    CampaignConfig config;
    config.trials = trials;
    config.shard_size = 16;
    config.seed = seed;
    config.policy = policy;
    config.weights = FaultSiteWeights::register_file_only();
    return CampaignEngine(f.ser, config)
        .run(f.graph, f.mapping, f.arch, f.levels, f.schedule);
}

TEST(FaultInjector, DeterministicGivenSeed) {
    Fixture f;
    const FaultInjector injector(f.ser, SimExposurePolicy::full_duration);
    Rng rng_a(99), rng_b(99);
    const auto a = injector.inject(f.graph, f.mapping, f.arch, f.levels, f.schedule, rng_a);
    const auto b = injector.inject(f.graph, f.mapping, f.arch, f.levels, f.schedule, rng_b);
    EXPECT_EQ(a.total_seus, b.total_seus);
    EXPECT_EQ(a.per_core, b.per_core);
}

TEST(FaultInjector, PerCoreSumsToTotal) {
    Fixture f;
    const FaultInjector injector(f.ser, SimExposurePolicy::full_duration);
    Rng rng(7);
    const auto result = injector.inject(f.graph, f.mapping, f.arch, f.levels, f.schedule, rng);
    const std::uint64_t sum =
        std::accumulate(result.per_core.begin(), result.per_core.end(), std::uint64_t{0});
    EXPECT_EQ(sum, result.total_seus);
    EXPECT_TRUE(result.per_register.empty()); // locations off by default
}

TEST(FaultInjector, LocationSamplingSumsToTotal) {
    Fixture f;
    const FaultInjector injector(f.ser, SimExposurePolicy::full_duration,
                                 /*sample_locations=*/true);
    Rng rng(11);
    const auto result = injector.inject(f.graph, f.mapping, f.arch, f.levels, f.schedule, rng);
    ASSERT_EQ(result.per_register.size(), f.graph.register_file().size());
    const std::uint64_t sum = std::accumulate(result.per_register.begin(),
                                              result.per_register.end(), std::uint64_t{0});
    EXPECT_EQ(sum, result.total_seus);
}

TEST(FaultInjector, WiderRegistersCollectMoreHits) {
    // r4 (5120 bits) must accumulate more hits than r7 (2048 bits) over
    // many trials — both live on some core in the round-robin mapping.
    Fixture f;
    const FaultInjector injector(f.ser, SimExposurePolicy::full_duration, true);
    Rng rng(13);
    std::uint64_t wide = 0, narrow = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const auto result =
            injector.inject(f.graph, f.mapping, f.arch, f.levels, f.schedule, rng);
        wide += result.per_register[3];   // r4
        narrow += result.per_register[6]; // r7
    }
    EXPECT_GT(wide, narrow);
}

TEST(FaultInjector, ZeroSerProducesNoSeus) {
    Fixture f;
    SerParams params;
    params.ser_ref_per_bit_cycle = 0.0;
    const FaultInjector injector(SerModel{params}, SimExposurePolicy::full_duration);
    Rng rng(5);
    const auto result = injector.inject(f.graph, f.mapping, f.arch, f.levels, f.schedule, rng);
    EXPECT_EQ(result.total_seus, 0u);
}

TEST(FaultInjector, CampaignMeanMatchesAnalyticGamma) {
    Fixture f;
    const CampaignReport report =
        register_file_campaign(f, SimExposurePolicy::full_duration, 300, 12345);
    ASSERT_EQ(report.trials, 300u);
    ASSERT_GT(report.analytic_gamma, 10.0); // enough signal for the test
    // Poisson: stderr of the mean is sqrt(Gamma / trials).
    const double stderr_mean = std::sqrt(report.analytic_gamma / 300.0);
    EXPECT_NEAR(report.total_stats.mean(), report.analytic_gamma, 5.0 * stderr_mean);
    // Poisson variance equals the mean.
    EXPECT_NEAR(report.total_stats.variance(), report.analytic_gamma,
                report.analytic_gamma * 0.35);
}

TEST(FaultInjector, CampaignMatchesAnalyticUnderBusyOnlyPolicy) {
    Fixture f;
    const CampaignReport report =
        register_file_campaign(f, SimExposurePolicy::busy_only, 300, 777);
    const SeuEstimator estimator{f.ser, ExposurePolicy::busy_only};
    const double analytic =
        estimator.estimate(f.graph, f.mapping, f.arch, f.levels, f.schedule).total;
    EXPECT_NEAR(report.analytic_gamma, analytic, analytic * 1e-12);
    const double stderr_mean = std::sqrt(analytic / 300.0);
    EXPECT_NEAR(report.total_stats.mean(), analytic, 5.0 * stderr_mean);
}

TEST(FaultInjector, CampaignIsDeterministicGivenSeed) {
    Fixture f;
    const CampaignReport a = register_file_campaign(f, SimExposurePolicy::full_duration, 50, 42);
    const CampaignReport b = register_file_campaign(f, SimExposurePolicy::full_duration, 50, 42);
    EXPECT_EQ(a.total_stats.sum(), b.total_stats.sum());
    EXPECT_DOUBLE_EQ(a.total_stats.variance(), b.total_stats.variance());
}

TEST(FaultInjector, ZeroTrialCampaignThrows) {
    Fixture f;
    EXPECT_THROW((void)register_file_campaign(f, SimExposurePolicy::full_duration, 0, 1),
                 std::invalid_argument);
}

TEST(FaultInjector, CampaignPinnedToForkAtReferenceLoop) {
    // The register-file campaign must equal a hand-rolled loop that
    // (a) derives trial streams with the order-invariant fork_at and
    // (b) goes through the public inject_profile path, draw for draw —
    // and its headline total must be that site's statistics alone.
    Fixture f;
    const std::uint64_t trials = 80, seed = 314;
    const CampaignReport report =
        register_file_campaign(f, SimExposurePolicy::busy_only, trials, seed);

    const FaultInjector injector(f.ser, SimExposurePolicy::busy_only);
    const auto profile = build_exposure_profile(f.graph, f.mapping, f.arch, f.schedule,
                                                SimExposurePolicy::busy_only);
    ExactMoments reference;
    const Rng root(seed);
    for (std::uint64_t trial = 0; trial < trials; ++trial) {
        Rng stream = root.fork_at(trial);
        reference.add(
            injector.inject_profile(profile, f.graph, f.arch, f.levels, stream).total_seus);
    }
    // Both states are exact integers, so every derived moment matches.
    EXPECT_EQ(report.total_stats.count(), reference.count());
    EXPECT_EQ(report.total_stats.sum(), reference.sum());
    EXPECT_EQ(report.total_stats.variance(), reference.variance());
    EXPECT_EQ(report.total_stats.min(), reference.min());
    EXPECT_EQ(report.total_stats.max(), reference.max());
    EXPECT_EQ(report.site(FaultSite::register_file).stats.sum(), report.total_stats.sum());
}

TEST(FaultInjector, LocationAndAggregateModesAgreeInExpectation) {
    Fixture f;
    const FaultInjector aggregate(f.ser, SimExposurePolicy::full_duration, false);
    const FaultInjector located(f.ser, SimExposurePolicy::full_duration, true);
    RunningStats agg_stats, loc_stats;
    Rng rng(31);
    for (int trial = 0; trial < 150; ++trial) {
        Rng agg_stream = rng.fork_at(2 * static_cast<std::uint64_t>(trial));
        Rng loc_stream = rng.fork_at(2 * static_cast<std::uint64_t>(trial) + 1);
        agg_stats.add(static_cast<double>(
            aggregate.inject(f.graph, f.mapping, f.arch, f.levels, f.schedule, agg_stream)
                .total_seus));
        loc_stats.add(static_cast<double>(
            located.inject(f.graph, f.mapping, f.arch, f.levels, f.schedule, loc_stream)
                .total_seus));
    }
    // Both sample the same Poisson total; means agree within joint CI.
    const double combined_sigma =
        std::sqrt(agg_stats.variance() / 150.0 + loc_stats.variance() / 150.0);
    EXPECT_NEAR(agg_stats.mean(), loc_stats.mean(), 5.0 * combined_sigma);
}

} // namespace
} // namespace seamap
