#include "sim/campaign.h"

#include "api/json.h"
#include "reliability/seu_estimator.h"
#include "sim/fault_injection.h"
#include "taskgraph/fig8.h"
#include "taskgraph/mpeg2.h"
#include "tgff/random_graph.h"
#include "util/cancellation.h"
#include "util/error.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

namespace seamap {
namespace {

struct Scenario {
    std::string name;
    TaskGraph graph;
    MpsocArchitecture arch;
    ScalingVector levels;
    Mapping mapping;
    Schedule schedule;
};

Scenario make_scenario(const std::string& name, TaskGraph graph, std::size_t cores,
                       ScalingVector levels) {
    MpsocArchitecture arch(cores, VoltageScalingTable::arm7_three_level());
    Mapping mapping = round_robin_mapping(graph, cores);
    Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, levels);
    return Scenario{name, std::move(graph), std::move(arch), std::move(levels),
                    std::move(mapping), std::move(schedule)};
}

Scenario fig8_scenario() {
    return make_scenario("fig8", fig8_example_graph(), 3, {1, 2, 2});
}

Scenario mpeg2_scenario() {
    return make_scenario("mpeg2", mpeg2_decoder_graph(), 4, {2, 2, 3, 2});
}

Scenario tgff_scenario() {
    TgffParams params;
    params.task_count = 24;
    return make_scenario("tgff", generate_tgff_graph(params, 42), 4, {1, 2, 3, 2});
}

std::vector<Scenario> all_scenarios() {
    std::vector<Scenario> out;
    out.push_back(fig8_scenario());
    out.push_back(mpeg2_scenario());
    out.push_back(tgff_scenario());
    return out;
}

CampaignReport run_with(const Scenario& s, CampaignConfig config) {
    const CampaignEngine engine(SerModel{}, config);
    return engine.run(s.graph, s.mapping, s.arch, s.levels, s.schedule);
}

/// The measurement half of the report rendered to bytes, with the
/// execution-shape accounting (shard size / shard count / threads are
/// not results) normalized away.
std::string measurement_bytes(const CampaignReport& report) {
    JsonValue doc = to_json(report);
    doc["shard_size"] = 0;
    doc["shards"] = 0;
    return doc.dump();
}

TEST(CampaignEngine, ReportAccountingAndAttributionAreConsistent) {
    const Scenario s = fig8_scenario();
    CampaignConfig config;
    config.trials = 400;
    config.shard_size = 64;
    config.seed = 5;
    const CampaignReport report = run_with(s, config);

    EXPECT_EQ(report.trials, 400u);
    EXPECT_EQ(report.shard_size, 64u);
    EXPECT_EQ(report.shards, 7u); // ceil(400 / 64)
    EXPECT_EQ(report.seed, 5u);
    EXPECT_EQ(report.total_stats.count(), 400u);
    for (const SiteReport& site : report.sites) EXPECT_EQ(site.stats.count(), 400u);

    // Per-site totals fold to the grand total.
    std::uint64_t site_sum = 0;
    for (const SiteReport& site : report.sites) site_sum += site.stats.sum();
    EXPECT_EQ(site_sum, report.total_stats.sum());

    // Per-core attribution covers every hit; per-task attribution
    // covers exactly the task-attributable sites.
    const std::uint64_t core_sum = std::accumulate(
        report.hits_per_core.begin(), report.hits_per_core.end(), std::uint64_t{0});
    EXPECT_EQ(core_sum, report.total_stats.sum());
    const std::uint64_t task_sum = std::accumulate(
        report.hits_per_task.begin(), report.hits_per_task.end(), std::uint64_t{0});
    EXPECT_EQ(task_sum, report.site(FaultSite::pipeline).stats.sum() +
                            report.site(FaultSite::memory).stats.sum());

    // Weighted per-site expectations fold to the grand expectation.
    double site_gamma = 0.0;
    for (const SiteReport& site : report.sites) site_gamma += site.analytic_gamma;
    EXPECT_NEAR(report.analytic_gamma, site_gamma, 1e-12 * report.analytic_gamma);
}

TEST(CampaignEngine, ByteIdenticalAcrossThreadCounts) {
    for (const Scenario& s : all_scenarios()) {
        CampaignConfig config;
        config.trials = 600;
        config.shard_size = 53; // deliberately not a divisor of trials
        config.seed = 11;
        config.num_threads = 1;
        const std::string serial = measurement_bytes(run_with(s, config));
        for (const std::size_t threads : {2u, 8u}) {
            config.num_threads = threads;
            EXPECT_EQ(measurement_bytes(run_with(s, config)), serial)
                << s.name << " with " << threads << " threads";
        }
    }
}

TEST(CampaignEngine, ByteIdenticalAcrossShardSizes) {
    const Scenario s = mpeg2_scenario();
    CampaignConfig config;
    config.trials = 500;
    config.seed = 21;
    config.num_threads = 2;
    config.shard_size = 1;
    const std::string reference = measurement_bytes(run_with(s, config));
    for (const std::uint64_t shard_size : {7ull, 64ull, 499ull, 500ull, 5000ull}) {
        config.shard_size = shard_size;
        EXPECT_EQ(measurement_bytes(run_with(s, config)), reference)
            << "shard size " << shard_size;
    }
}

TEST(CampaignEngine, RegisterFileSiteReplaysTheSerialCampaignExactly) {
    // With pipeline/memory weights at zero, the engine's per-trial draw
    // sequence is identical to FaultInjector::inject_profile on the
    // eq. (3) exposure profile with the same fork_at streams — pinning
    // both the rate-table hoist and the fork_at migration bit-exactly.
    const Scenario s = fig8_scenario();
    CampaignConfig config;
    config.trials = 250;
    config.shard_size = 32;
    config.seed = 77;
    config.weights.pipeline = 0.0;
    config.weights.memory = 0.0;
    const CampaignReport report = run_with(s, config);

    const FaultInjector injector(SerModel{}, SimExposurePolicy::full_duration);
    const auto profile =
        build_exposure_profile(s.graph, s.mapping, s.arch, s.schedule, config.policy);
    ExactMoments reference;
    const Rng root(config.seed);
    for (std::uint64_t trial = 0; trial < config.trials; ++trial) {
        Rng stream = root.fork_at(trial);
        reference.add(
            injector.inject_profile(profile, s.graph, s.arch, s.levels, stream).total_seus);
    }
    const ExactMoments& measured = report.site(FaultSite::register_file).stats;
    EXPECT_EQ(measured.count(), reference.count());
    EXPECT_EQ(measured.sum(), reference.sum());
    EXPECT_EQ(measured.min(), reference.min());
    EXPECT_EQ(measured.max(), reference.max());
    EXPECT_DOUBLE_EQ(measured.mean(), reference.mean());
    EXPECT_DOUBLE_EQ(measured.variance(), reference.variance());
    // And the zero-weight sites collected nothing.
    EXPECT_EQ(report.site(FaultSite::pipeline).stats.sum(), 0u);
    EXPECT_EQ(report.site(FaultSite::memory).stats.sum(), 0u);
    EXPECT_EQ(report.total_stats.sum(), measured.sum());
}

/// Every site's exact moments (count, min, max, then the sum and the
/// sum of squares as hi:lo 64-bit words) and the per-core and per-task
/// hits of a report, one line each.
std::string exact_tally(const CampaignReport& report) {
    std::ostringstream out;
    for (std::size_t site = 0; site < k_fault_site_count; ++site) {
        const ExactMomentsState st = report.sites[site].stats.state();
        out << fault_site_name(static_cast<FaultSite>(site)) << ' ' << st.count << ' '
            << st.min << ' ' << st.max << ' ' << st.sum_hi << ':' << st.sum_lo << ' '
            << st.sum_sq_hi << ':' << st.sum_sq_lo << '\n';
    }
    out << "cores";
    for (const std::uint64_t hits : report.hits_per_core) out << ' ' << hits;
    out << "\ntasks";
    for (const std::uint64_t hits : report.hits_per_task) out << ' ' << hits;
    out << '\n';
    return out.str();
}

TEST(CampaignEngine, ReportBytesArePinned) {
    // A fixed MPEG-2 design (round-robin mapping, levels {2, 2, 3, 2}):
    // 26 sources with means from 17 to 8.1e4, so every draw takes
    // Devroye's rejection path. The literals were taken with
    // std::mt19937_64 and a fresh std::poisson_distribution per draw, so
    // a change to the engine's stream, the sampler or the per-run
    // sampler table shows here, at 1 and 4 threads.
    const Scenario s = mpeg2_scenario();
    CampaignConfig config;
    config.trials = 3000;
    config.shard_size = 256;
    for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        config.num_threads = threads;
        config.seed = 2;
        EXPECT_EQ(exact_tally(run_with(s, config)),
                  "register_file 3000 282024 285636 0:851761145 0:241833204576483\n"
                  "pipeline 3000 661 866 0:2277484 0:1731351934\n"
                  "memory 3000 13813 14527 0:42582925 0:604474239695\n"
                  "cores 231239384 256607836 246439427 162334907\n"
                  "tasks 1394631 1755157 3023773 2510453 5422734 6368304 7537061 5683071 "
                  "4613176 4567863 1984186\n");
        config.seed = 3;
        EXPECT_EQ(exact_tally(run_with(s, config)),
                  "register_file 3000 282080 285768 0:851823351 0:241868513129283\n"
                  "pipeline 3000 663 875 0:2278350 0:1732592240\n"
                  "memory 3000 13804 14675 0:42589798 0:604675328158\n"
                  "cores 231264270 256641455 246458006 162327768\n"
                  "tasks 1392707 1754294 3026392 2509571 5427485 6371216 7537844 5679867 "
                  "4608750 4574503 1985519\n");
    }
}

TEST(CampaignEngine, AnalyticGammaValidatedWithinCampaignCi) {
    // The campaign's validation surface: at register-file weight 1 the
    // site expectation is the analytic Γ of eq. (3) exactly, and the
    // measured mean agrees with SeuEstimator within the campaign's own
    // 95% confidence interval on every scenario.
    for (const Scenario& s : all_scenarios()) {
        CampaignConfig config;
        config.trials = 6'000;
        config.shard_size = 512;
        config.num_threads = 2;
        config.seed = 12345;
        const CampaignReport report = run_with(s, config);

        const SeuEstimator estimator{SerModel{}, ExposurePolicy::full_duration};
        const double analytic =
            estimator.estimate(s.graph, s.mapping, s.arch, s.levels, s.schedule).total;
        const SiteReport& site = report.site(FaultSite::register_file);
        ASSERT_GT(analytic, 1.0) << s.name;
        EXPECT_NEAR(site.analytic_gamma, analytic, 1e-12 * analytic) << s.name;
        EXPECT_LE(std::abs(site.stats.mean() - analytic), site.stats.ci95_halfwidth())
            << s.name << ": measured " << site.stats.mean() << " vs analytic "
            << analytic << " (CI +/- " << site.stats.ci95_halfwidth() << ")";
    }
}

TEST(CampaignEngine, BusyOnlyPolicyValidatesAgainstMatchingEstimator) {
    const Scenario s = mpeg2_scenario();
    CampaignConfig config;
    config.trials = 6'000;
    config.shard_size = 256;
    config.seed = 2024;
    config.policy = SimExposurePolicy::busy_only;
    const CampaignReport report = run_with(s, config);
    const SeuEstimator estimator{SerModel{}, ExposurePolicy::busy_only};
    const double analytic =
        estimator.estimate(s.graph, s.mapping, s.arch, s.levels, s.schedule).total;
    const SiteReport& site = report.site(FaultSite::register_file);
    EXPECT_NEAR(site.analytic_gamma, analytic, 1e-12 * analytic);
    EXPECT_LE(std::abs(site.stats.mean() - analytic), site.stats.ci95_halfwidth());
}

TEST(CampaignEngine, SourceTableCoversEverySiteWithPrecomputedMeans) {
    const Scenario s = fig8_scenario();
    const CampaignEngine engine(SerModel{}, CampaignConfig{});
    const auto sources =
        engine.build_sources(s.graph, s.mapping, s.arch, s.levels, s.schedule);
    std::size_t register_sources = 0, pipeline_sources = 0, memory_sources = 0;
    for (const FaultSource& source : sources) {
        EXPECT_GE(source.mean_seus, 0.0);
        EXPECT_LT(source.core, s.arch.core_count());
        switch (source.site) {
        case FaultSite::register_file:
            ++register_sources;
            EXPECT_EQ(source.task, k_no_task);
            break;
        case FaultSite::pipeline:
            ++pipeline_sources;
            EXPECT_LT(source.task, s.graph.task_count());
            break;
        case FaultSite::memory:
            ++memory_sources;
            EXPECT_LT(source.task, s.graph.task_count());
            break;
        }
    }
    EXPECT_GT(register_sources, 0u);
    EXPECT_EQ(pipeline_sources, s.graph.task_count());
    EXPECT_EQ(memory_sources, s.graph.task_count());
}

TEST(CampaignEngine, PipelineExpectationScalesWithLatchBits) {
    const Scenario s = fig8_scenario();
    CampaignConfig config;
    config.trials = 1;
    const CampaignEngine narrow(SerModel{}, config);
    config.pipeline_bits *= 2.0;
    const CampaignEngine wide(SerModel{}, config);
    const double narrow_gamma =
        narrow.run(s.graph, s.mapping, s.arch, s.levels, s.schedule)
            .site(FaultSite::pipeline)
            .analytic_gamma;
    const double wide_gamma =
        wide.run(s.graph, s.mapping, s.arch, s.levels, s.schedule)
            .site(FaultSite::pipeline)
            .analytic_gamma;
    EXPECT_GT(narrow_gamma, 0.0);
    EXPECT_NEAR(wide_gamma, 2.0 * narrow_gamma, 1e-12 * wide_gamma);
}

TEST(CampaignEngine, TaskAttributionComesOnlyFromTaskSites) {
    const Scenario s = fig8_scenario();
    CampaignConfig config;
    config.trials = 200;
    config.seed = 3;
    config.weights.register_file = 1.0;
    config.weights.pipeline = 0.0;
    config.weights.memory = 0.0;
    const CampaignReport register_only = run_with(s, config);
    const std::uint64_t task_sum =
        std::accumulate(register_only.hits_per_task.begin(),
                        register_only.hits_per_task.end(), std::uint64_t{0});
    EXPECT_EQ(task_sum, 0u); // union residency has no owning task
    EXPECT_GT(register_only.total_stats.sum(), 0u);
}

TEST(CampaignEngine, InvalidConfigurationsThrow) {
    CampaignConfig config;
    config.trials = 0;
    EXPECT_THROW((CampaignEngine{SerModel{}, config}), std::invalid_argument);
    config = CampaignConfig{};
    config.shard_size = 0;
    EXPECT_THROW((CampaignEngine{SerModel{}, config}), std::invalid_argument);
    config = CampaignConfig{};
    config.weights.memory = -0.5;
    EXPECT_THROW((CampaignEngine{SerModel{}, config}), std::invalid_argument);
    config = CampaignConfig{};
    config.pipeline_bits = -1.0;
    EXPECT_THROW((CampaignEngine{SerModel{}, config}), std::invalid_argument);
}

TEST(CampaignEngine, NonFiniteSiteWeightsAndPipelineBitsAreRejected) {
    // A NaN or infinite weight would only surface inside a shard, after
    // the exploration, as an invalid Poisson mean.
    for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
        CampaignConfig bits;
        bits.pipeline_bits = bad;
        EXPECT_THROW((CampaignEngine{SerModel{}, bits}), std::invalid_argument) << bad;
        for (double FaultSiteWeights::*field :
             {&FaultSiteWeights::register_file, &FaultSiteWeights::pipeline,
              &FaultSiteWeights::memory}) {
            CampaignConfig config;
            config.weights.*field = bad;
            EXPECT_THROW((CampaignEngine{SerModel{}, config}), std::invalid_argument) << bad;
        }
    }
}

TEST(CampaignEngine, ShardArithmeticDoesNotWrap) {
    // trials + shard_size - 1 and lo + shard_size both wrap here; the
    // stopped token keeps every shard from running a trial.
    const Scenario s = fig8_scenario();
    CampaignConfig config;
    config.trials = std::numeric_limits<std::uint64_t>::max();
    config.shard_size = std::uint64_t{1} << 63;
    CancellationToken stopped;
    stopped.request_stop();
    const CampaignReport report = CampaignEngine(SerModel{}, config)
                                      .run(s.graph, s.mapping, s.arch, s.levels, s.schedule,
                                           &stopped);
    EXPECT_EQ(report.shards, 2u);
    EXPECT_EQ(report.shards_completed, 0u);
}

TEST(CampaignEngine, OversizedShardTablesAreAStructuredError) {
    CampaignConfig config;
    config.trials = std::numeric_limits<std::uint64_t>::max();
    try {
        CampaignEngine(SerModel{}, config);
        FAIL() << "2^64 - 1 trials in 1024-trial shards were accepted";
    } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::invalid_argument);
        EXPECT_NE(e.message().find("18014398509481984 shards of 1024 trials"),
                  std::string::npos)
            << e.message();
    }
    // The same trials in 2^48-trial shards fit (2^16 shards).
    config.shard_size = std::uint64_t{1} << 48;
    EXPECT_NO_THROW(CampaignEngine(SerModel{}, config));
}

// tier1 smoke: a short multi-threaded campaign on every scenario; runs
// under the TSan CI job (ctest -L tier1) so the shard dispatch and the
// pre-assigned-slot merge get happens-before checking.
TEST(CampaignEngine, SmokeShardedCampaignAcrossScenarios) {
    for (const Scenario& s : all_scenarios()) {
        CampaignConfig config;
        config.trials = 300;
        config.shard_size = 25;
        config.num_threads = 4;
        config.seed = 9;
        const CampaignReport report = run_with(s, config);
        EXPECT_EQ(report.total_stats.count(), config.trials) << s.name;
        EXPECT_GT(report.analytic_gamma, 0.0) << s.name;
        EXPECT_GT(report.total_stats.sum(), 0u) << s.name;
    }
}

} // namespace
} // namespace seamap
