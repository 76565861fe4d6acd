// Physics sanity properties of the analytic models, swept over the
// operating-point and parameter ranges the experiments use. These pin
// the *directions* every paper trend relies on: power falls
// superlinearly with scaling, SER rises as voltage falls, Gamma scales
// linearly in SER and exposure.
#include "arch/power_model.h"
#include "reliability/design_eval.h"
#include "sched/list_scheduler.h"
#include "taskgraph/mpeg2.h"

#include <gtest/gtest.h>

#include <tuple>

namespace seamap {
namespace {

class OperatingPointSweep : public testing::TestWithParam<ScalingLevel> {};

TEST_P(OperatingPointSweep, DeeperScalingTradesPowerForReliability) {
    const ScalingLevel level = GetParam();
    const auto table = VoltageScalingTable::arm7_four_level();
    if (static_cast<std::size_t>(level) + 1 > table.level_count()) GTEST_SKIP();
    const PowerModel power(table, PowerParams{});
    const SerModel ser;
    // One level deeper: strictly less power (f*V^2 both shrink)...
    EXPECT_LT(power.core_active_power_mw(static_cast<ScalingLevel>(level + 1)),
              power.core_active_power_mw(level));
    // ...and a strictly higher per-cycle upset rate.
    const auto deeper = static_cast<ScalingLevel>(level + 1);
    EXPECT_GT(ser.ser_per_bit_second(table.vdd(deeper)) / table.frequency_hz(deeper),
              ser.ser_per_bit_second(table.vdd(level)) / table.frequency_hz(level));
}

INSTANTIATE_TEST_SUITE_P(AllLevels, OperatingPointSweep,
                         testing::Values<ScalingLevel>(1, 2, 3),
                         [](const testing::TestParamInfo<ScalingLevel>& param_info) {
                             std::string label = "level";
                             label += std::to_string(param_info.param);
                             return label;
                         });

TEST(ModelLinearity, GammaIsLinearInSerReference) {
    const TaskGraph graph = mpeg2_decoder_graph();
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const Mapping mapping = round_robin_mapping(graph, 4);
    const ScalingVector levels = {2, 2, 2, 2};
    const Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, levels);
    SerParams params;
    params.ser_ref_per_bit_cycle = 1e-9;
    const double base = SeuEstimator{SerModel{params}}
                            .estimate(graph, mapping, arch, levels, schedule)
                            .total;
    params.ser_ref_per_bit_cycle = 3e-9;
    const double tripled = SeuEstimator{SerModel{params}}
                               .estimate(graph, mapping, arch, levels, schedule)
                               .total;
    EXPECT_NEAR(tripled, 3.0 * base, 3.0 * base * 1e-12);
}

TEST(ModelLinearity, GammaIsLinearInBatchDurationAtFixedMapping) {
    // Doubling the stream length (batch count at equal per-iteration
    // cost means double the cycles) doubles full-duration exposure and
    // hence Gamma, asymptotically (pipeline fill is amortized).
    TaskGraph short_run = mpeg2_decoder_graph();
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const Mapping mapping = round_robin_mapping(short_run, 4);
    const ScalingVector levels = {1, 1, 1, 1};
    const SeuEstimator estimator{SerModel{}};
    const Schedule s1 = ListScheduler{}.schedule(short_run, mapping, arch, levels);
    const double g1 = estimator.estimate(short_run, mapping, arch, levels, s1).total;

    // Same graph with double the whole-run cycles (double batches of
    // the same per-frame work): scale every cost by 2 and double B.
    RegisterFile regs_copy;
    for (RegisterId r = 0; r < short_run.register_file().size(); ++r)
        regs_copy.add_register(short_run.register_file().name(r),
                               short_run.register_file().bits(r));
    TaskGraph long_run("mpeg2_double", std::move(regs_copy));
    long_run.set_batch_count(short_run.batch_count() * 2);
    for (TaskId t = 0; t < short_run.task_count(); ++t) {
        std::vector<RegisterId> regs;
        short_run.task(t).registers.for_each([&](RegisterId r) { regs.push_back(r); });
        long_run.add_task(short_run.task(t).name, short_run.task(t).exec_cycles * 2, regs);
    }
    for (const Edge& e : short_run.edges())
        long_run.add_edge(e.src, e.dst, e.comm_cycles * 2);
    const Schedule s2 = ListScheduler{}.schedule(long_run, mapping, arch, levels);
    const double g2 = estimator.estimate(long_run, mapping, arch, levels, s2).total;
    EXPECT_NEAR(g2 / g1, 2.0, 0.01);
}

TEST(ModelMonotonicity, PowerOrdersScalingVectorsByAggregateSpeed) {
    // For a fixed mapping, pointwise-faster scaling vectors cost more.
    const TaskGraph graph = mpeg2_decoder_graph();
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const Mapping mapping = round_robin_mapping(graph, 4);
    const ScalingVector slower = {3, 3, 2, 2};
    const ScalingVector faster = {2, 2, 1, 1};
    const EvaluationContext slow_ctx{graph, arch, slower, SeuEstimator{SerModel{}}, 1e9};
    const EvaluationContext fast_ctx{graph, arch, faster, SeuEstimator{SerModel{}}, 1e9};
    EXPECT_GT(evaluate_design(fast_ctx, mapping).power_mw,
              evaluate_design(slow_ctx, mapping).power_mw);
}

} // namespace
} // namespace seamap
