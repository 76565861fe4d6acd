#include "baseline/objectives.h"

#include <gtest/gtest.h>

namespace seamap {
namespace {

DesignMetrics make_metrics() {
    DesignMetrics m;
    m.tm_seconds = 2.0;
    m.register_bits = 50'000;
    m.gamma = 1234.5;
    m.power_mw = 6.0;
    m.feasible = true;
    return m;
}

TEST(Objectives, ValuesPickTheRightMetric) {
    const DesignMetrics m = make_metrics();
    EXPECT_DOUBLE_EQ(objective_value(MappingObjective::register_usage, m), 50'000.0);
    EXPECT_DOUBLE_EQ(objective_value(MappingObjective::makespan, m), 2.0);
    EXPECT_DOUBLE_EQ(objective_value(MappingObjective::time_register_product, m), 100'000.0);
    EXPECT_DOUBLE_EQ(objective_value(MappingObjective::seu_count, m), 1234.5);
}

} // namespace
} // namespace seamap
