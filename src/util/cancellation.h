// Cooperative cancellation for long-running searches. A
// CancellationToken carries an explicit stop request (thread-safe,
// settable from any thread, e.g. a signal handler or UI) and an
// optional wall-clock deadline — the only wall-clock limit a search or
// an exploration has. Tokens can be chained: a child token created
// with a parent pointer also stops when the parent does, which is how
// the explorer stops its own workers (after a failed search) on top of
// a caller-supplied token.
//
// Configuration (set_deadline / set_budget_seconds) must happen before
// the token is shared with worker threads; only request_stop() and the
// queries are thread-safe afterwards.
#pragma once

#include <atomic>
#include <chrono>
#include <optional>

namespace seamap {

class CancellationToken {
public:
    using Clock = std::chrono::steady_clock;

    CancellationToken() = default;
    /// Child token: also reports stop when `parent` does. `parent` must
    /// outlive this token (not owned).
    explicit CancellationToken(const CancellationToken* parent) : parent_(parent) {}

    // Tokens are shared by reference between threads; copying one would
    // silently fork the stop flag.
    CancellationToken(const CancellationToken&) = delete;
    CancellationToken& operator=(const CancellationToken&) = delete;

    /// Ask every cooperating search to stop at its next check.
    void request_stop() { stop_.store(true, std::memory_order_relaxed); }

    /// Absolute wall-clock cutoff after which stop_requested() is true.
    void set_deadline(Clock::time_point when) { deadline_ = when; }
    /// Relative form: now + `seconds`. Values <= 0, and values beyond
    /// the clock's range (including +inf), clear the deadline; NaN
    /// throws std::invalid_argument.
    void set_budget_seconds(double seconds);

    /// True once request_stop() was called (here or on an ancestor).
    bool cancel_requested() const {
        if (stop_.load(std::memory_order_relaxed)) return true;
        return parent_ != nullptr && parent_->cancel_requested();
    }

    /// True when the search should wind down: explicit request or an
    /// expired deadline, on this token or any ancestor. Cheap when no
    /// deadline is set (one relaxed atomic load per level).
    bool stop_requested() const {
        if (stop_.load(std::memory_order_relaxed)) return true;
        if (deadline_ && Clock::now() >= *deadline_) return true;
        return parent_ != nullptr && parent_->stop_requested();
    }

private:
    std::atomic<bool> stop_{false};
    std::optional<Clock::time_point> deadline_;
    const CancellationToken* parent_ = nullptr;
};

/// Wall-clock rate limiter for periodic side effects (checkpoint
/// flushes, progress lines): due() is true when at least `seconds`
/// elapsed since construction or the last reset(). Lives here because
/// this is the one sanctioned wall-clock site outside benches — the
/// determinism linter forbids clock reads elsewhere, and checkpoint
/// cadence must never leak into search results.
class IntervalTimer {
public:
    using Clock = CancellationToken::Clock;

    /// `seconds` <= 0 disables the timer: due() is always false.
    explicit IntervalTimer(double seconds)
        : seconds_(seconds), last_(Clock::now()) {}

    bool due() const {
        if (seconds_ <= 0.0) return false;
        const std::chrono::duration<double> elapsed = Clock::now() - last_;
        return elapsed.count() >= seconds_;
    }

    /// Restart the interval (call after performing the side effect).
    void reset() { last_ = Clock::now(); }

private:
    double seconds_;
    Clock::time_point last_;
};

} // namespace seamap
