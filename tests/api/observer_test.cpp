// ProgressObserver / CancellationToken contract with the multi-threaded
// explorer: every finished scaling is reported exactly once, the
// streamed incumbent follows the paper's selection rule (and equals
// the final best when completion order is enumeration order, i.e. one
// thread), callbacks never run concurrently, and cancellation stops
// the exploration cooperatively with a well-formed partial result.
#include "seamap/seamap.h"

#include "taskgraph/fig8.h"

#include <chrono>
#include <cstddef>
#include <gtest/gtest.h>
#include <mutex>
#include <vector>

namespace seamap {
namespace {

Problem fig8_problem() {
    return ProblemBuilder()
        .graph(fig8_example_graph())
        .architecture(3, VoltageScalingTable::arm7_three_level())
        .deadline_seconds(0.5)
        .build();
}

ExploreOptions quick_options(std::size_t threads) {
    ExploreOptions options;
    options.dse.search.max_iterations = 400;
    options.dse.search.seed = 7;
    options.dse.num_threads = threads;
    return options;
}

class RecordingObserver : public ProgressObserver {
public:
    void on_explore_begin(std::size_t total_scalings) override {
        ++begin_calls;
        total = total_scalings;
    }
    void on_scaling_done(const ScalingProgress& progress) override {
        // The explorer serializes callbacks; try_lock failing would
        // mean two ran concurrently.
        std::unique_lock lock(mutex_, std::try_to_lock);
        ASSERT_TRUE(lock.owns_lock());
        done.push_back(progress);
    }
    void on_incumbent(const DsePoint& point) override {
        std::unique_lock lock(mutex_, std::try_to_lock);
        ASSERT_TRUE(lock.owns_lock());
        incumbents.push_back(point);
    }
    void on_explore_end(const DseResult& result) override {
        ++end_calls;
        final_feasible_count = result.feasible_points.size();
    }

    int begin_calls = 0;
    int end_calls = 0;
    std::size_t total = 0;
    std::vector<ScalingProgress> done;
    std::vector<DsePoint> incumbents;
    std::size_t final_feasible_count = 0;

private:
    std::mutex mutex_;
};

TEST(ProgressObserver, SeesEveryScalingExactlyOnce) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        RecordingObserver observer;
        const DseResult result =
            explore(fig8_problem(), quick_options(threads), &observer);
        EXPECT_EQ(observer.begin_calls, 1);
        EXPECT_EQ(observer.end_calls, 1);
        EXPECT_EQ(observer.total, 10u); // C(3+3-1, 2) combinations
        EXPECT_EQ(observer.done.size(), result.scalings_enumerated);
        std::vector<bool> seen(observer.total, false);
        std::size_t feasible = 0;
        for (const ScalingProgress& progress : observer.done) {
            ASSERT_LT(progress.index, seen.size());
            EXPECT_FALSE(seen[progress.index]) << "duplicate index " << progress.index;
            seen[progress.index] = true;
            EXPECT_EQ(progress.total, observer.total);
            if (progress.outcome == ScalingProgress::Outcome::feasible) ++feasible;
        }
        EXPECT_EQ(feasible, result.feasible_points.size());
        EXPECT_EQ(observer.final_feasible_count, result.feasible_points.size());
    }
}

TEST(ProgressObserver, SerialIncumbentStreamEndsAtTheFinalBest) {
    RecordingObserver observer;
    const DseResult result = explore(fig8_problem(), quick_options(1), &observer);
    ASSERT_TRUE(result.best.has_value());
    ASSERT_FALSE(observer.incumbents.empty());
    // With one thread, completion order is enumeration order, so the
    // streamed incumbent fold is the final fold: bit-identical design.
    const DsePoint& last = observer.incumbents.back();
    EXPECT_EQ(last.levels, result.best->levels);
    EXPECT_EQ(last.mapping, result.best->mapping);
    EXPECT_EQ(last.metrics.power_mw, result.best->metrics.power_mw);
    EXPECT_EQ(last.metrics.gamma, result.best->metrics.gamma);
}

TEST(Cancellation, PreCancelledExploreRunsNothing) {
    CancellationToken cancel;
    cancel.request_stop();
    RecordingObserver observer;
    const DseResult result =
        explore(fig8_problem(), quick_options(4), &observer, &cancel);
    EXPECT_EQ(result.scalings_enumerated, 0u);
    EXPECT_EQ(result.scalings_total, 10u); // the full sequence is still reported
    EXPECT_FALSE(result.best.has_value());
    EXPECT_TRUE(result.feasible_points.empty());
    EXPECT_EQ(observer.begin_calls, 1);
    EXPECT_EQ(observer.end_calls, 1); // partial result still reported
}

/// Cancels the exploration from inside the first completion callback.
class CancellingObserver : public ProgressObserver {
public:
    explicit CancellingObserver(CancellationToken& token) : token_(token) {}
    void on_scaling_done(const ScalingProgress&) override {
        ++done_count;
        token_.request_stop();
    }
    int done_count = 0;

private:
    CancellationToken& token_;
};

TEST(Cancellation, MidExploreCancellationYieldsAPartialResult) {
    CancellationToken cancel;
    CancellingObserver observer(cancel);
    const DseResult result =
        explore(fig8_problem(), quick_options(1), &observer, &cancel);
    EXPECT_GT(observer.done_count, 0);
    // Serial exploration: after the first slot cancels the token, every
    // later slot is skipped before starting.
    EXPECT_LT(result.scalings_enumerated, 10u);
    EXPECT_EQ(result.scalings_enumerated,
              static_cast<std::uint64_t>(observer.done_count));
}

TEST(Cancellation, TokenDeadlineAndParentChainWork) {
    CancellationToken parent;
    CancellationToken child(&parent);
    EXPECT_FALSE(child.stop_requested());
    parent.request_stop();
    EXPECT_TRUE(child.stop_requested());
    EXPECT_TRUE(child.cancel_requested());

    CancellationToken expired;
    expired.set_deadline(CancellationToken::Clock::now() -
                         std::chrono::milliseconds(1));
    EXPECT_TRUE(expired.stop_requested());
    EXPECT_FALSE(expired.cancel_requested()); // deadline, not a request
    expired.set_budget_seconds(0.0);          // <= 0 clears the deadline
    EXPECT_FALSE(expired.stop_requested());
}

} // namespace
} // namespace seamap
