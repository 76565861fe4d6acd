// The headline crash-safety invariant: kill an exploration at any
// point, resume it from the checkpoint — at ANY thread count — and the
// final report is byte-identical to the uninterrupted run. Exercised
// over three workloads (fig8, MPEG-2, a TGFF random graph), three
// interruption points, three resume thread counts and three flush
// cadences, plus the rejection paths (corrupt file, mismatched
// problem).
#include "seamap/seamap.h"

#include "sched/list_scheduler.h"
#include "sim/campaign_checkpoint.h"
#include "support/journal.h"
#include "taskgraph/fig8.h"
#include "taskgraph/mpeg2.h"
#include "tgff/random_graph.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace seamap {
namespace {

/// Cooperative "kill": request a stop after the Nth completed scaling,
/// like a SIGINT landing mid-run (the CLI path flips the same token).
class StopAfter : public ProgressObserver {
public:
    StopAfter(CancellationToken& cancel, std::size_t after)
        : cancel_(cancel), after_(after) {}

    void on_scaling_done(const ScalingProgress&) override {
        if (++seen_ >= after_) cancel_.request_stop();
    }

private:
    CancellationToken& cancel_;
    std::size_t after_;
    std::size_t seen_ = 0;
};

/// Runs `check` at every completed scaling.
class EachScaling : public ProgressObserver {
public:
    explicit EachScaling(std::function<void()> check) : check_(std::move(check)) {}
    void on_scaling_done(const ScalingProgress&) override { check_(); }

private:
    std::function<void()> check_;
};

std::string file_bytes(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

struct Scenario {
    TaskGraph graph;
    std::size_t cores;
    double deadline;
};

Scenario fig8_scenario() { return {fig8_example_graph(), 3, 0.5}; }

Scenario mpeg2_scenario() {
    TaskGraph graph = mpeg2_decoder_graph();
    const MpsocArchitecture two(2, VoltageScalingTable::arm7_three_level());
    const double deadline = 1.3 * tm_lower_bound_seconds(graph, two, {1, 1});
    return {std::move(graph), 4, deadline};
}

Scenario tgff_scenario() {
    TgffParams params;
    params.task_count = 12;
    TaskGraph graph = generate_tgff_graph(params, 42);
    const MpsocArchitecture two(2, VoltageScalingTable::arm7_three_level());
    const double deadline = 1.35 * tm_lower_bound_seconds(graph, two, {1, 1});
    return {std::move(graph), 3, deadline};
}

Problem make_problem(const Scenario& scenario) {
    return ProblemBuilder()
        .graph(scenario.graph)
        .architecture(scenario.cores, VoltageScalingTable::arm7_three_level())
        .deadline_seconds(scenario.deadline)
        .build();
}

ExploreOptions make_options(std::size_t threads) {
    ExploreOptions options;
    options.dse.search.max_iterations = 400;
    options.dse.search.seed = 7;
    options.dse.num_threads = threads;
    return options;
}

std::string report_bytes(const Problem& problem, const ExploreOptions& options,
                         const DseResult& result) {
    return optimize_report_json(problem, options.strategy, result).dump(2);
}

std::string ckpt_path(const std::string& tag) {
    return testing::TempDir() + "/dse_ckpt_" + tag + ".ckpt";
}

/// Interrupt after `stop_after` completed scalings at `kill_threads`,
/// then resume at `resume_threads`; returns the resumed report bytes.
/// `slots_resumed_out`, when given, accumulates how many decided slots
/// the resumed run actually restored (a stop can land before the first
/// slot is decided, in which case resume degenerates to a fresh run —
/// still correct, but callers should assert real resumes happen too).
std::string kill_and_resume(const Scenario& scenario, const ExploreOptions& base,
                            const std::string& path, std::size_t stop_after,
                            std::size_t kill_threads, std::size_t resume_threads,
                            std::uint64_t cadence_every,
                            std::uint64_t* slots_resumed_out = nullptr) {
    const Problem problem = make_problem(scenario);
    remove_checkpoint(path);
    {
        ExploreOptions options = base;
        options.dse.num_threads = kill_threads;
        DseCheckpointer checkpointer(path, explore_state_hash(problem, options));
        checkpointer.set_cadence(cadence_every, 0.0);
        CancellationToken cancel;
        StopAfter observer(cancel, stop_after);
        (void)explore(problem, options, &observer, &cancel, &checkpointer);
    }
    ExploreOptions options = base;
    options.dse.num_threads = resume_threads;
    DseCheckpointer checkpointer(path, explore_state_hash(problem, options));
    const auto info =
        checkpointer.load(problem.graph().task_count(), problem.architecture().core_count());
    if (slots_resumed_out != nullptr && info) *slots_resumed_out += info->slots_decided;
    const DseResult resumed = explore(problem, options, nullptr, nullptr, &checkpointer);
    remove_checkpoint(path);
    return report_bytes(problem, options, resumed);
}

TEST(DseCheckpoint, Fig8KillAndResumeMatrix) {
    const Scenario scenario = fig8_scenario();
    const ExploreOptions base = make_options(1);
    const Problem problem = make_problem(scenario);
    const std::string baseline =
        report_bytes(problem, base, explore(problem, base));
    std::uint64_t slots_resumed = 0;
    for (const std::size_t stop_after : {std::size_t{1}, std::size_t{3}, std::size_t{6}}) {
        for (const std::size_t resume_threads :
             {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
            const std::string resumed = kill_and_resume(
                scenario, base, ckpt_path("fig8"), stop_after, 2, resume_threads,
                /*cadence_every=*/1, &slots_resumed);
            EXPECT_EQ(resumed, baseline)
                << "stop_after=" << stop_after << " resume_threads=" << resume_threads;
        }
    }
    // The matrix must exercise real resumes, not nine fresh restarts.
    EXPECT_GT(slots_resumed, 0u);
}

TEST(DseCheckpoint, Fig8CadenceNeverChangesBytes) {
    // Flush cadences only change WHEN snapshots hit the disk, never what
    // a resumed run computes: count-of-1, count-of-4 and stop-only (the
    // final flush on cancellation) must all reproduce the baseline.
    const Scenario scenario = fig8_scenario();
    const ExploreOptions base = make_options(1);
    const Problem problem = make_problem(scenario);
    const std::string baseline =
        report_bytes(problem, base, explore(problem, base));
    for (const std::uint64_t cadence : {std::uint64_t{1}, std::uint64_t{4}, std::uint64_t{0}}) {
        const std::string resumed = kill_and_resume(scenario, base, ckpt_path("fig8_cad"),
                                                    /*stop_after=*/4, 2, 2, cadence);
        EXPECT_EQ(resumed, baseline) << "cadence_every=" << cadence;
    }
}

TEST(DseCheckpoint, Mpeg2KillAndResumeAcrossThreadCounts) {
    const Scenario scenario = mpeg2_scenario();
    const ExploreOptions base = make_options(1);
    const Problem problem = make_problem(scenario);
    const std::string baseline =
        report_bytes(problem, base, explore(problem, base));
    EXPECT_EQ(kill_and_resume(scenario, base, ckpt_path("mpeg2_a"), 5, 8, 1, 1), baseline);
    EXPECT_EQ(kill_and_resume(scenario, base, ckpt_path("mpeg2_b"), 9, 1, 8, 2), baseline);
}

TEST(DseCheckpoint, TgffKillAndResume) {
    const Scenario scenario = tgff_scenario();
    const ExploreOptions base = make_options(1);
    const Problem problem = make_problem(scenario);
    const std::string baseline =
        report_bytes(problem, base, explore(problem, base));
    EXPECT_EQ(kill_and_resume(scenario, base, ckpt_path("tgff"), 3, 2, 8, 1), baseline);
}

TEST(DseCheckpoint, CompletedSnapshotIsMemoizedExplore) {
    const Scenario scenario = fig8_scenario();
    const ExploreOptions options = make_options(2);
    const Problem problem = make_problem(scenario);
    const std::string path = ckpt_path("memo");
    remove_checkpoint(path);
    std::string first;
    {
        DseCheckpointer checkpointer(path, explore_state_hash(problem, options));
        first = report_bytes(problem, options,
                             explore(problem, options, nullptr, nullptr, &checkpointer));
    }
    DseCheckpointer checkpointer(path, explore_state_hash(problem, options));
    const auto info =
        checkpointer.load(problem.graph().task_count(), problem.architecture().core_count());
    ASSERT_TRUE(info.has_value());
    EXPECT_GT(info->slots_decided, 0u);
    const DseResult replayed = explore(problem, options, nullptr, nullptr, &checkpointer);
    EXPECT_EQ(report_bytes(problem, options, replayed), first);
    remove_checkpoint(path);
}

TEST(DseCheckpoint, MismatchedProblemIsRejectedWithDiagnostic) {
    const Scenario scenario = fig8_scenario();
    const ExploreOptions options = make_options(1);
    const Problem problem = make_problem(scenario);
    const std::string path = ckpt_path("mismatch");
    remove_checkpoint(path);
    {
        DseCheckpointer checkpointer(path, explore_state_hash(problem, options));
        (void)explore(problem, options, nullptr, nullptr, &checkpointer);
    }
    // Same file, different problem (tighter deadline) — a different
    // state hash, so resuming must fail loudly, naming both hashes.
    Scenario other = fig8_scenario();
    other.deadline = 0.4;
    const Problem other_problem = make_problem(other);
    DseCheckpointer checkpointer(path, explore_state_hash(other_problem, options));
    try {
        (void)checkpointer.load(other_problem.graph().task_count(),
                                other_problem.architecture().core_count());
        FAIL() << "expected checkpoint_mismatch";
    } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::checkpoint_mismatch);
        EXPECT_NE(std::string(e.what()).find("state hash"), std::string::npos);
    }
    remove_checkpoint(path);
}

TEST(DseCheckpoint, CorruptSnapshotWithoutFallbackIsRejected) {
    const Scenario scenario = fig8_scenario();
    const ExploreOptions options = make_options(1);
    const Problem problem = make_problem(scenario);
    const std::string path = ckpt_path("corrupt");
    remove_checkpoint(path);
    {
        std::ofstream os(path);
        os << "seamap-checkpoint 1\nnot really\n";
    }
    DseCheckpointer checkpointer(path, explore_state_hash(problem, options));
    try {
        (void)checkpointer.load(problem.graph().task_count(),
                                problem.architecture().core_count());
        FAIL() << "expected checkpoint_corrupt";
    } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::checkpoint_corrupt);
    }
    remove_checkpoint(path);
}

TEST(DseCheckpoint, FeasibleRecordWithExtraPointIsRejected) {
    // A feasible record carries exactly one design point. A second one
    // (the retired `minpower` side channel) inside an otherwise valid
    // journal is a corrupt record, never silently dropped.
    const Scenario scenario = fig8_scenario();
    const ExploreOptions options = make_options(1);
    const Problem problem = make_problem(scenario);
    const std::string path = ckpt_path("extra_point");
    const std::uint64_t hash = explore_state_hash(problem, options);
    remove_checkpoint(path);
    {
        DseCheckpointer checkpointer(path, hash);
        (void)explore(problem, options, nullptr, nullptr, &checkpointer);
    }
    std::optional<std::vector<std::string>> records = Journal(path, "dse", hash).load();
    ASSERT_TRUE(records.has_value());
    bool extended = false;
    for (std::string& line : *records) {
        if (line.rfind("feasible ", 0) != 0) continue;
        // "feasible <combo> <point>": repeat the point as a minpower one.
        const std::size_t point_at = line.find(' ', std::string("feasible ").size());
        line += " minpower" + line.substr(point_at);
        extended = true;
        break;
    }
    ASSERT_TRUE(extended);
    // Rewrite the journal through the real writer, so only the record is wrong.
    {
        Journal forged(path, "dse", hash);
        for (std::string& line : *records) forged.append(std::move(line));
        forged.flush();
    }
    DseCheckpointer checkpointer(path, hash);
    try {
        (void)checkpointer.load(problem.graph().task_count(),
                                problem.architecture().core_count());
        FAIL() << "expected checkpoint_corrupt";
    } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::checkpoint_corrupt);
    }
    remove_checkpoint(path);
}

TEST(DseCheckpoint, TornTailThenAppendMatchesBaseline) {
    // Kill-during-write simulation: the journal is torn mid-way through
    // its last line. The resumed run drops the torn line, and its first
    // flush cuts it off before appending, so a second interruption and
    // a third run still load and reproduce the uninterrupted bytes.
    const Scenario scenario = fig8_scenario();
    const ExploreOptions base = make_options(2);
    const Problem problem = make_problem(scenario);
    const std::string path = ckpt_path("torn");
    remove_checkpoint(path);
    // One thread, so each stop lands after slots decided in order. The
    // thread count is not a hash input, so `base` resumes these runs.
    const ExploreOptions killed = make_options(1);
    const std::uint64_t hash = explore_state_hash(problem, killed);
    const std::size_t tasks = problem.graph().task_count();
    const std::size_t cores = problem.architecture().core_count();
    std::uint64_t first_decided = 0;
    {
        DseCheckpointer checkpointer(path, hash);
        checkpointer.set_cadence(1, 0.0);
        CancellationToken cancel;
        StopAfter observer(cancel, 5);
        (void)explore(problem, killed, &observer, &cancel, &checkpointer);
        const auto info = DseCheckpointer(path, hash).load(tasks, cores);
        ASSERT_TRUE(info.has_value());
        first_decided = info->slots_decided;
    }
    ASSERT_GE(first_decided, 2u);
    {
        const std::string text = file_bytes(path);
        const std::size_t last_line = text.rfind('\n', text.size() - 2) + 1;
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << text.substr(0, last_line + (text.size() - last_line) / 2);
    }
    {
        DseCheckpointer checkpointer(path, hash);
        const auto info = checkpointer.load(tasks, cores);
        ASSERT_TRUE(info.has_value());
        EXPECT_EQ(info->slots_decided, first_decided - 1);
        checkpointer.set_cadence(1, 0.0);
        CancellationToken cancel;
        StopAfter observer(cancel, 4);
        (void)explore(problem, killed, &observer, &cancel, &checkpointer);
    }
    DseCheckpointer checkpointer(path, explore_state_hash(problem, base));
    const auto info = checkpointer.load(tasks, cores);
    ASSERT_TRUE(info.has_value());
    EXPECT_GT(info->slots_decided, first_decided - 1);
    const std::string baseline = report_bytes(problem, base, explore(problem, base));
    const DseResult resumed = explore(problem, base, nullptr, nullptr, &checkpointer);
    EXPECT_EQ(report_bytes(problem, base, resumed), baseline);
    remove_checkpoint(path);
}

TEST(DseCheckpoint, JournalIsAppendOnly) {
    // Every flush appends: each state of the file is a byte-prefix of
    // the next, and the final file is the header plus exactly one line
    // per decided slot, so the bytes written are O(records).
    const Scenario scenario = mpeg2_scenario();
    const ExploreOptions options = make_options(1);
    const Problem problem = make_problem(scenario);
    const std::string path = ckpt_path("append_only");
    const std::uint64_t hash = explore_state_hash(problem, options);
    remove_checkpoint(path);
    std::string seen;
    std::size_t checks = 0;
    EachScaling observer([&] {
        const std::string now = file_bytes(path);
        EXPECT_EQ(now.substr(0, seen.size()), seen) << "after " << checks << " scalings";
        seen = now;
        ++checks;
    });
    DseCheckpointer checkpointer(path, hash);
    checkpointer.set_cadence(1, 0.0);
    const DseResult result = explore(problem, options, &observer, nullptr, &checkpointer);
    const std::string final_bytes = file_bytes(path);
    EXPECT_EQ(final_bytes.substr(0, seen.size()), seen);
    EXPECT_GT(checks, 2u);

    const std::optional<std::vector<std::string>> records = Journal(path, "dse", hash).load();
    ASSERT_TRUE(records.has_value());
    EXPECT_EQ(records->size(), result.scalings_pruned + result.scalings_searched);
    std::size_t expected = final_bytes.find('\n') + 1; // the header
    for (const std::string& record : *records) expected += record.size() + 18; // " <16 hex>\n"
    EXPECT_EQ(final_bytes.size(), expected);
    remove_checkpoint(path);
}

TEST(ExploreStateHash, PinnedSoOlderSnapshotsKeepResuming) {
    // Snapshots on disk carry this hash; any drift turns every existing
    // snapshot into a checkpoint_mismatch. The fig8 inputs are literal
    // constants (no derived floating point), so the value is portable.
    // Change it only together with a deliberate break of resumability.
    const Problem problem = make_problem(fig8_scenario());
    EXPECT_EQ(explore_state_hash(problem, make_options(1)), 0xf8ca227447d06325ULL);
    // Thread count is not a result input.
    EXPECT_EQ(explore_state_hash(problem, make_options(8)), 0xf8ca227447d06325ULL);
    // The annealing strategy hashes the same search configuration (the
    // retired temperature knobs included, as constants) under its name.
    ExploreOptions annealing = make_options(1);
    annealing.strategy = "annealing";
    EXPECT_EQ(explore_state_hash(problem, annealing), 0x4baafda2f5471722ULL);
}

TEST(CampaignStateHash, PinnedSoOlderSnapshotsKeepResuming) {
    // The campaign counterpart: a fixed fig8 design (round-robin
    // mapping, one core per operating point) under the default SER
    // model and campaign shape. Change the value only together with a
    // deliberate break of resumability.
    const Problem problem = make_problem(fig8_scenario());
    const Mapping mapping = round_robin_mapping(problem.graph(), 3);
    const ScalingVector levels{1, 2, 3};
    const Schedule schedule =
        ListScheduler{}.schedule(problem.graph(), mapping, problem.architecture(), levels);
    CampaignConfig config;
    const std::uint64_t pinned = 0x63c103ee5f351f65ULL;
    EXPECT_EQ(campaign_state_hash(problem.graph(), mapping, problem.architecture(), levels,
                                  schedule, SerModel{}, config),
              pinned);
    // Thread count is not a result input.
    config.num_threads = 8;
    EXPECT_EQ(campaign_state_hash(problem.graph(), mapping, problem.architecture(), levels,
                                  schedule, SerModel{}, config),
              pinned);
}

} // namespace
} // namespace seamap
