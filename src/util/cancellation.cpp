#include "util/cancellation.h"

#include <cmath>
#include <stdexcept>

namespace seamap {

void CancellationToken::set_budget_seconds(double seconds) {
    if (std::isnan(seconds))
        throw std::invalid_argument("CancellationToken: budget must not be NaN");
    const Clock::time_point now = Clock::now();
    const std::chrono::duration<double, Clock::period> budget =
        std::chrono::duration<double>(seconds);
    // A deadline beyond the clock's range (+inf included) could never fire.
    const auto headroom = static_cast<double>((Clock::time_point::max() - now).count());
    if (seconds <= 0.0 || budget.count() >= headroom)
        deadline_.reset();
    else
        deadline_ = now + std::chrono::duration_cast<Clock::duration>(budget);
}

IntervalTimer::IntervalTimer(double seconds) : seconds_(seconds), last_(Clock::now()) {
    if (std::isnan(seconds))
        throw std::invalid_argument("IntervalTimer: interval must not be NaN");
}

} // namespace seamap
