#include "util/cancellation.h"

#include <chrono>
#include <gtest/gtest.h>
#include <limits>
#include <stdexcept>

namespace seamap {
namespace {

TEST(CancellationToken, HugeOrInfiniteBudgetNeverFires) {
    // Budgets beyond the clock's range clear the deadline instead of
    // overflowing it into the past.
    for (const double seconds :
         {1e10, 1e300, std::numeric_limits<double>::max(),
          std::numeric_limits<double>::infinity()}) {
        CancellationToken token;
        token.set_budget_seconds(seconds);
        EXPECT_FALSE(token.stop_requested()) << seconds;
    }
    // A huge budget also clears an earlier, already expired deadline.
    CancellationToken token;
    token.set_deadline(CancellationToken::Clock::now() - std::chrono::milliseconds(1));
    ASSERT_TRUE(token.stop_requested());
    token.set_budget_seconds(std::numeric_limits<double>::infinity());
    EXPECT_FALSE(token.stop_requested());
}

TEST(CancellationToken, NanBudgetIsRejected) {
    CancellationToken token;
    EXPECT_THROW(token.set_budget_seconds(std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
    EXPECT_FALSE(token.stop_requested());
}

TEST(IntervalTimer, NanIntervalIsRejected) {
    // NaN compares false against everything, so it would never be due.
    EXPECT_THROW(IntervalTimer{std::numeric_limits<double>::quiet_NaN()},
                 std::invalid_argument);
    EXPECT_FALSE(IntervalTimer{0.0}.due()); // <= 0 still disables
}

} // namespace
} // namespace seamap
