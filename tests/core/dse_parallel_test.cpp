// Determinism regression for the parallel explorer: with no wall-clock
// budget, explore() must return bit-identical results for any thread
// count — every scaling combination is searched with the same derived
// seed and the replay ledger decides slots in pop order. The guarantee is
// per *strategy*: both built-in search strategies are pinned here. A
// throwing strategy or observer must surface from explore() at any
// thread count instead of hanging the producer or killing a worker.
#include "seamap/seamap.h"

#include "api/scenarios.h"
#include "support/journal.h"
#include "taskgraph/fig8.h"
#include "taskgraph/mpeg2.h"
#include "util/parallel.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace seamap {
namespace {

DseResult run_explore(const TaskGraph& graph, std::size_t cores, double deadline,
                      std::size_t threads, const std::string& strategy = "optimized") {
    ExploreOptions options;
    options.strategy = strategy;
    options.dse.search.max_iterations = 600;
    options.dse.search.seed = 7;
    options.dse.num_threads = threads;
    const Problem problem = ProblemBuilder()
                                .graph(graph)
                                .architecture(cores, VoltageScalingTable::arm7_three_level())
                                .deadline_seconds(deadline)
                                .build();
    return explore(problem, options);
}

void expect_point_identical(const DsePoint& a, const DsePoint& b) {
    EXPECT_EQ(a.levels, b.levels);
    EXPECT_EQ(a.mapping, b.mapping);
    // Exact (bitwise) float comparison on purpose: the searches are
    // identical walks, so every metric must match to the last bit.
    EXPECT_EQ(a.metrics.tm_seconds, b.metrics.tm_seconds);
    EXPECT_EQ(a.metrics.latency_seconds, b.metrics.latency_seconds);
    EXPECT_EQ(a.metrics.register_bits, b.metrics.register_bits);
    EXPECT_EQ(a.metrics.gamma, b.metrics.gamma);
    EXPECT_EQ(a.metrics.power_mw, b.metrics.power_mw);
    EXPECT_EQ(a.metrics.feasible, b.metrics.feasible);
}

void expect_result_identical(const DseResult& a, const DseResult& b) {
    EXPECT_EQ(a.scalings_total, b.scalings_total);
    EXPECT_EQ(a.scalings_enumerated, b.scalings_enumerated);
    EXPECT_EQ(a.scalings_skipped_infeasible, b.scalings_skipped_infeasible);
    EXPECT_EQ(a.scalings_searched, b.scalings_searched);
    ASSERT_EQ(a.feasible_points.size(), b.feasible_points.size());
    for (std::size_t i = 0; i < a.feasible_points.size(); ++i)
        expect_point_identical(a.feasible_points[i], b.feasible_points[i]);
    ASSERT_EQ(a.pareto_front.size(), b.pareto_front.size());
    for (std::size_t i = 0; i < a.pareto_front.size(); ++i)
        expect_point_identical(a.pareto_front[i], b.pareto_front[i]);
    ASSERT_EQ(a.best.has_value(), b.best.has_value());
    if (a.best) expect_point_identical(*a.best, *b.best);
}

TEST(DseParallel, Fig8BitIdenticalAcrossThreadCounts) {
    const TaskGraph graph = fig8_example_graph();
    const DseResult serial = run_explore(graph, 3, 0.5, 1);
    const DseResult parallel = run_explore(graph, 3, 0.5, 8);
    ASSERT_TRUE(serial.best.has_value());
    expect_result_identical(serial, parallel);
}

TEST(DseParallel, Mpeg2BitIdenticalAcrossThreadCounts) {
    const TaskGraph graph = mpeg2_decoder_graph();
    const MpsocArchitecture two(2, VoltageScalingTable::arm7_three_level());
    const double deadline = 1.3 * tm_lower_bound_seconds(graph, two, {1, 1});
    const DseResult serial = run_explore(graph, 4, deadline, 1);
    const DseResult parallel = run_explore(graph, 4, deadline, 8);
    ASSERT_TRUE(serial.best.has_value());
    expect_result_identical(serial, parallel);
}

TEST(DseParallel, AnnealingStrategyBitIdenticalAcrossThreadCounts) {
    const TaskGraph graph = fig8_example_graph();
    const DseResult serial = run_explore(graph, 3, 0.5, 1, "annealing");
    const DseResult parallel = run_explore(graph, 3, 0.5, 8, "annealing");
    ASSERT_TRUE(serial.best.has_value());
    expect_result_identical(serial, parallel);
}

TEST(DseParallel, ZeroThreadsMeansHardwareConcurrency) {
    // DseParams documents num_threads = 0 as "one per hardware thread",
    // clamped in resolve_thread_count: 0 and the explicit
    // hardware count must produce identical results (as must serial).
    const TaskGraph graph = fig8_example_graph();
    const DseResult automatic = run_explore(graph, 3, 0.5, 0);
    const DseResult explicit_hw =
        run_explore(graph, 3, 0.5, hardware_threads());
    const DseResult serial = run_explore(graph, 3, 0.5, 1);
    expect_result_identical(automatic, explicit_hw);
    expect_result_identical(serial, automatic);
}

/// The Fig. 7 search, except that the first search it receives waits
/// until `release_after` other searches have finished (0: never
/// waits). The 10 s timeout keeps a broken explorer from hanging the
/// suite; released_by_count() tells the two releases apart.
class HoldFirstStrategy final : public SearchStrategy {
public:
    HoldFirstStrategy(const LocalSearchParams& params, std::size_t release_after)
        : inner_(params), release_after_(release_after) {}
    std::string name() const override { return "hold-first"; }
    LocalSearchResult search(EvalContext& eval, const Mapping& initial, std::uint64_t seed,
                             const CancellationToken* cancel) const override {
        if (release_after_ > 0 && !held_.exchange(true)) {
            std::unique_lock lock(mutex_);
            released_by_count_ = finished_cv_.wait_for(
                lock, std::chrono::seconds(10), [&] { return finished_ >= release_after_; });
            lock.unlock();
            return inner_.search(eval, initial, seed, cancel);
        }
        LocalSearchResult found = inner_.search(eval, initial, seed, cancel);
        {
            std::lock_guard lock(mutex_);
            ++finished_;
        }
        finished_cv_.notify_all();
        return found;
    }
    bool released_by_count() const {
        std::lock_guard lock(mutex_);
        return released_by_count_;
    }

private:
    OptimizedMappingStrategy inner_;
    std::size_t release_after_;
    mutable std::atomic<bool> held_{false};
    mutable std::mutex mutex_;
    mutable std::condition_variable finished_cv_;
    mutable std::size_t finished_ = 0;
    mutable bool released_by_count_ = false;
};

/// Result JSON and final snapshot bytes of one run.
struct RunBytes {
    std::string result;
    std::string snapshot;
};

RunBytes run_with_snapshot(const Problem& problem, const DseParams& params,
                           const SearchStrategy& strategy, const std::string& path) {
    remove_checkpoint(path);
    DseCheckpointer checkpointer(path, 0x5eed);
    checkpointer.set_cadence(1, 0.0);
    const DesignSpaceExplorer explorer(problem.ser_model(), problem.exposure_policy());
    const DseResult result =
        explorer.explore(problem.graph(), problem.architecture(), problem.deadline_seconds(),
                         params, strategy, nullptr, nullptr, &checkpointer);
    std::ifstream is(path, std::ios::binary);
    RunBytes bytes{to_json(result).dump(),
                   std::string(std::istreambuf_iterator<char>(is),
                               std::istreambuf_iterator<char>())};
    remove_checkpoint(path);
    return bytes;
}

TEST(DseParallel, HeadSlotCompletingLastIsByteIdentical) {
    // The replay decides slots in pop order, so a head slot that
    // finishes after its successors stalls it: the disposal window
    // fills (this problem has 100 gate passers, more than the 64-slot
    // window) and workers prune against a stalled replay front. The
    // verdicts and the snapshot must not notice.
    const Problem problem = prunable_pipeline_problem(8);
    DseParams params;
    params.search.max_iterations = 400;
    params.search.seed = 1;
    params.num_threads = 1;
    const std::string path = testing::TempDir() + "/dse_parallel_head_last.ckpt";
    const RunBytes serial =
        run_with_snapshot(problem, params, HoldFirstStrategy(params.search, 0), path);

    params.num_threads = 4;
    const HoldFirstStrategy held(params.search, 8);
    const RunBytes parallel = run_with_snapshot(problem, params, held, path);
    EXPECT_TRUE(held.released_by_count()) << "the hold ran into its timeout";
    EXPECT_EQ(parallel.result, serial.result);
    ASSERT_FALSE(serial.snapshot.empty());
    EXPECT_EQ(parallel.snapshot, serial.snapshot);
}

/// The Fig. 7 search for the first `good_calls` slots, then a throw.
class ThrowingStrategy final : public SearchStrategy {
public:
    explicit ThrowingStrategy(int good_calls) : good_calls_(good_calls) {}
    std::string name() const override { return "throwing"; }
    LocalSearchResult search(EvalContext& eval, const Mapping& initial, std::uint64_t seed,
                             const CancellationToken* cancel) const override {
        if (calls_.fetch_add(1) >= good_calls_) throw std::runtime_error("strategy failed");
        return inner_.search(eval, initial, seed, cancel);
    }

private:
    OptimizedMappingStrategy inner_;
    int good_calls_;
    mutable std::atomic<int> calls_{0};
};

TEST(DseParallel, ThrowingStrategySurfacesFromExplore) {
    const TaskGraph graph = fig8_example_graph();
    const MpsocArchitecture arch(3, VoltageScalingTable::arm7_three_level());
    for (const std::size_t threads : {1u, 4u}) {
        for (const int good_calls : {0, 3}) {
            DseParams params;
            params.num_threads = threads;
            const ThrowingStrategy strategy(good_calls);
            EXPECT_THROW((void)DesignSpaceExplorer{SerModel{}}.explore(graph, arch, 0.5,
                                                                       params, strategy),
                         std::runtime_error)
                << threads << " threads, " << good_calls << " good calls";
        }
    }
}

/// Throws from on_scaling_done for one kind of outcome.
class ThrowingObserver final : public ProgressObserver {
public:
    explicit ThrowingObserver(bool on_gate_skips) : on_gate_skips_(on_gate_skips) {}
    void on_scaling_done(const ScalingProgress& progress) override {
        const bool gate_skip =
            progress.outcome == ScalingProgress::Outcome::skipped_infeasible;
        if (gate_skip == on_gate_skips_) throw std::runtime_error("observer failed");
    }

private:
    bool on_gate_skips_;
};

TEST(DseParallel, ThrowingObserverSurfacesFromExplore) {
    // Searched outcomes are streamed from the workers, gate skips from
    // the producer: both must reach the caller.
    const TaskGraph graph = mpeg2_decoder_graph();
    const MpsocArchitecture two(2, VoltageScalingTable::arm7_three_level());
    const double deadline = 1.3 * tm_lower_bound_seconds(graph, two, {1, 1});
    const Problem problem = ProblemBuilder()
                                .graph(graph)
                                .architecture(4, VoltageScalingTable::arm7_three_level())
                                .deadline_seconds(deadline)
                                .build();
    for (const std::size_t threads : {1u, 4u}) {
        for (const bool on_gate_skips : {false, true}) {
            ExploreOptions options;
            options.dse.search.max_iterations = 100;
            options.dse.num_threads = threads;
            ThrowingObserver observer(on_gate_skips);
            EXPECT_THROW((void)explore(problem, options, &observer), std::runtime_error)
                << threads << " threads, throwing on "
                << (on_gate_skips ? "gate skips" : "searched slots");
        }
    }
}

/// The Fig. 7 search, counting its calls.
class CountingStrategy final : public SearchStrategy {
public:
    explicit CountingStrategy(const LocalSearchParams& params) : inner_(params) {}
    std::string name() const override { return "counting"; }
    LocalSearchResult search(EvalContext& eval, const Mapping& initial, std::uint64_t seed,
                             const CancellationToken* cancel) const override {
        calls_.fetch_add(1);
        return inner_.search(eval, initial, seed, cancel);
    }
    int calls() const { return calls_.load(); }

private:
    OptimizedMappingStrategy inner_;
    mutable std::atomic<int> calls_{0};
};

TEST(DseParallel, FirstFailureStopsTheRun) {
    // The observer throws on every outcome but a gate skip, so the first
    // slot a worker streams fails the run. Bound: a worker streams a
    // searched slot before it completes it, and checks for a stop before
    // each search and again before streaming, so a worker's first search
    // either streams (and throws) or is cut by an earlier failure: each
    // worker makes at most one strategy call. A run that kept searching
    // after the failure would call it once per emitted slot (100 gate
    // passers here).
    const Problem problem = prunable_pipeline_problem(8);
    for (const std::size_t threads : {1u, 4u}) {
        DseParams params;
        params.search.max_iterations = 200;
        params.num_threads = threads;
        const CountingStrategy strategy(params.search);
        ThrowingObserver observer(false);
        const DesignSpaceExplorer explorer(problem.ser_model(), problem.exposure_policy());
        EXPECT_THROW((void)explorer.explore(problem.graph(), problem.architecture(),
                                            problem.deadline_seconds(), params, strategy,
                                            &observer),
                     std::runtime_error)
            << threads << " threads";
        EXPECT_GE(strategy.calls(), 1) << threads << " threads";
        EXPECT_LE(strategy.calls(), static_cast<int>(threads)) << threads << " threads";
    }
}

} // namespace
} // namespace seamap
