// Regression tests for pareto_front_of's near-duplicate dedup: the
// relative epsilon must be symmetric and purely relative, so
// degenerate near-zero metrics (0-power points) never collapse into
// genuinely different designs, and the surviving representative of a
// near-duplicate group must not depend on evaluation order.
#include "core/dse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace seamap {
namespace {

DsePoint point(double power_mw, double gamma) {
    DsePoint p;
    p.metrics.power_mw = power_mw;
    p.metrics.gamma = gamma;
    p.metrics.feasible = true;
    return p;
}

TEST(ParetoFront, DegenerateZeroPowerPointsStayDistinct) {
    // Both are non-dominated (power rises as gamma falls). Under an
    // absolute-floored epsilon the 1e-12 mW design collapsed into the
    // 0 mW one; the purely relative comparison keeps both.
    std::vector<DsePoint> points;
    points.push_back(point(0.0, 5.0));
    points.push_back(point(1e-12, 4.0));
    const auto front = pareto_front_of(points);
    ASSERT_EQ(front.size(), 2u);
    EXPECT_EQ(front[0].metrics.power_mw, 0.0);
    EXPECT_EQ(front[1].metrics.power_mw, 1e-12);
}

TEST(ParetoFront, NearZeroGammaPairsStayDistinct) {
    std::vector<DsePoint> points;
    points.push_back(point(1.0, 0.0));
    points.push_back(point(2.0, 0.0)); // dominated: same gamma, more power
    points.push_back(point(0.5, 1e-10));
    const auto front = pareto_front_of(points);
    ASSERT_EQ(front.size(), 2u);
    EXPECT_EQ(front[0].metrics.power_mw, 0.5);
    EXPECT_EQ(front[1].metrics.gamma, 0.0);
}

TEST(ParetoFront, ExactDuplicatesAndLastUlpTwinsDeduplicate) {
    const double power = 5.25;
    const double gamma = 0.125;
    // A last-ulp twin of an otherwise identical design.
    const double power_ulp = std::nextafter(power, 6.0);
    std::vector<DsePoint> points;
    points.push_back(point(power, gamma));
    points.push_back(point(power, gamma));
    points.push_back(point(power_ulp, gamma));
    const auto front = pareto_front_of(points);
    EXPECT_EQ(front.size(), 1u);
}

TEST(ParetoFront, DedupIsSymmetricInInputOrder) {
    // Two mutually non-dominated points whose power AND gamma agree
    // within the relative epsilon: whichever order the two arrive in,
    // the same survivor (first in the deterministic (power, gamma)
    // sort) must be kept.
    const double a_power = 10.0;
    const double b_power = 10.0 * (1.0 + 1e-10);
    std::vector<DsePoint> forward;
    forward.push_back(point(a_power, 3.0));
    forward.push_back(point(b_power, 2.999999999)); // near-equal gamma too
    std::vector<DsePoint> backward(forward.rbegin(), forward.rend());
    const auto front_fwd = pareto_front_of(forward);
    const auto front_bwd = pareto_front_of(backward);
    ASSERT_EQ(front_fwd.size(), front_bwd.size());
    for (std::size_t i = 0; i < front_fwd.size(); ++i) {
        EXPECT_EQ(front_fwd[i].metrics.power_mw, front_bwd[i].metrics.power_mw);
        EXPECT_EQ(front_fwd[i].metrics.gamma, front_bwd[i].metrics.gamma);
    }
}

} // namespace
} // namespace seamap
