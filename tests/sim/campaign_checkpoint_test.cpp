// Kill-and-resume for the sharded fault-injection campaign: stop the
// engine between shards, resume from the snapshot at a different
// thread count, and the merged report must be byte-identical to the
// uninterrupted run — the exact-integer-moment merge discipline makes
// shard restoration order-invariant. Plus the rejection paths.
#include "seamap/seamap.h"

#include "sim/campaign_checkpoint.h"
#include "support/journal.h"
#include "taskgraph/fig8.h"
#include "util/strings.h"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace seamap {
namespace {

struct Design {
    Problem problem;
    DsePoint best;
    Schedule schedule;
};

Design make_design() {
    Problem problem = ProblemBuilder()
                          .graph(fig8_example_graph())
                          .architecture(3, VoltageScalingTable::arm7_three_level())
                          .deadline_seconds(0.5)
                          .build();
    ExploreOptions options;
    options.dse.search.max_iterations = 300;
    options.dse.search.seed = 7;
    const DseResult result = explore(problem, options);
    EXPECT_TRUE(result.best.has_value());
    const DsePoint best = *result.best;
    Schedule schedule = ListScheduler{}.schedule(problem.graph(), best.mapping,
                                                 problem.architecture(), best.levels);
    return {std::move(problem), best, std::move(schedule)};
}

CampaignConfig make_config(std::uint64_t shard_size, std::size_t threads) {
    CampaignConfig config;
    config.trials = 3'000;
    config.shard_size = shard_size;
    config.num_threads = threads;
    config.seed = 11;
    return config;
}

std::string report_bytes(const CampaignReport& report) { return to_json(report).dump(2); }

std::string ckpt_path(const std::string& tag) {
    return testing::TempDir() + "/campaign_ckpt_" + tag + ".ckpt";
}

std::uint64_t state_hash(const Design& design, const CampaignConfig& config) {
    return campaign_state_hash(design.problem.graph(), design.best.mapping,
                               design.problem.architecture(), design.best.levels,
                               design.schedule, design.problem.ser_model(), config);
}

CampaignReport run(const Design& design, const CampaignEngine& engine,
                   const CancellationToken* cancel, CampaignCheckpointer* ckpt) {
    return engine.run(design.problem.graph(), design.best.mapping,
                      design.problem.architecture(), design.best.levels, design.schedule,
                      cancel, ckpt);
}

/// Interrupt after `stop_after` recorded shards, resume at
/// `resume_threads`; returns the resumed report bytes.
std::string kill_and_resume(const Design& design, std::uint64_t shard_size,
                            std::size_t kill_threads, std::size_t resume_threads,
                            std::uint64_t stop_after, const std::string& path,
                            std::uint64_t* shards_resumed_out = nullptr) {
    remove_checkpoint(path);
    const SerModel& ser = design.problem.ser_model();
    {
        const CampaignConfig config = make_config(shard_size, kill_threads);
        const CampaignEngine engine(ser, config);
        CampaignCheckpointer ckpt(path, state_hash(design, config));
        ckpt.set_cadence(1, 0.0);
        CancellationToken cancel;
        ckpt.on_shard_recorded = [&](std::uint64_t done) {
            if (done >= stop_after) cancel.request_stop();
        };
        const CampaignReport partial = run(design, engine, &cancel, &ckpt);
        EXPECT_LE(partial.shards_completed, partial.shards);
    }
    const CampaignConfig config = make_config(shard_size, resume_threads);
    const CampaignEngine engine(ser, config);
    CampaignCheckpointer ckpt(path, state_hash(design, config));
    const auto info = ckpt.load();
    if (shards_resumed_out != nullptr && info) *shards_resumed_out += info->shards_completed;
    const CampaignReport resumed = run(design, engine, nullptr, &ckpt);
    EXPECT_EQ(resumed.shards_completed, resumed.shards);
    remove_checkpoint(path);
    return report_bytes(resumed);
}

TEST(CampaignCheckpoint, KillAndResumeMatrix) {
    const Design design = make_design();
    const CampaignEngine baseline_engine(design.problem.ser_model(), make_config(256, 1));
    const std::string baseline =
        report_bytes(run(design, baseline_engine, nullptr, nullptr));
    std::uint64_t shards_resumed = 0;
    for (const std::uint64_t stop_after :
         {std::uint64_t{1}, std::uint64_t{4}, std::uint64_t{9}}) {
        for (const std::size_t resume_threads :
             {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
            const std::string resumed =
                kill_and_resume(design, 256, 2, resume_threads, stop_after,
                                ckpt_path("matrix"), &shards_resumed);
            EXPECT_EQ(resumed, baseline)
                << "stop_after=" << stop_after << " resume_threads=" << resume_threads;
        }
    }
    EXPECT_GT(shards_resumed, 0u);
}

TEST(CampaignCheckpoint, ShardSizeVariantsEachMatchTheirOwnBaseline) {
    const Design design = make_design();
    for (const std::uint64_t shard_size : {std::uint64_t{128}, std::uint64_t{512}}) {
        const CampaignEngine engine(design.problem.ser_model(),
                                    make_config(shard_size, 1));
        const std::string baseline = report_bytes(run(design, engine, nullptr, nullptr));
        EXPECT_EQ(kill_and_resume(design, shard_size, 8, 1, 3, ckpt_path("shards")),
                  baseline)
            << "shard_size=" << shard_size;
    }
}

TEST(CampaignCheckpoint, InterruptedReportIsMarkedPartial) {
    const Design design = make_design();
    const std::string path = ckpt_path("partial");
    remove_checkpoint(path);
    const CampaignConfig config = make_config(256, 2);
    const CampaignEngine engine(design.problem.ser_model(), config);
    CampaignCheckpointer ckpt(path, state_hash(design, config));
    CancellationToken cancel;
    ckpt.on_shard_recorded = [&](std::uint64_t done) {
        if (done >= 2) cancel.request_stop();
    };
    const CampaignReport partial = run(design, engine, &cancel, &ckpt);
    ASSERT_LT(partial.shards_completed, partial.shards);
    // The partial JSON document says so explicitly.
    const std::string json = report_bytes(partial);
    EXPECT_NE(json.find("\"shards_completed\""), std::string::npos);
    remove_checkpoint(path);
}

TEST(CampaignCheckpoint, DifferentSeedIsMismatch) {
    const Design design = make_design();
    const std::string path = ckpt_path("mismatch");
    remove_checkpoint(path);
    const SerModel& ser = design.problem.ser_model();
    {
        const CampaignConfig config = make_config(256, 1);
        const CampaignEngine engine(ser, config);
        CampaignCheckpointer ckpt(path, state_hash(design, config));
        CancellationToken cancel;
        ckpt.on_shard_recorded = [&](std::uint64_t) { cancel.request_stop(); };
        (void)run(design, engine, &cancel, &ckpt);
    }
    CampaignConfig other = make_config(256, 1);
    other.seed = 999;
    CampaignCheckpointer ckpt(path, state_hash(design, other));
    try {
        (void)ckpt.load();
        FAIL() << "expected checkpoint_mismatch";
    } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::checkpoint_mismatch);
    }
    remove_checkpoint(path);
}

TEST(CampaignCheckpoint, CorruptSnapshotIsRejected) {
    const Design design = make_design();
    const std::string path = ckpt_path("corrupt");
    remove_checkpoint(path);
    {
        std::ofstream os(path);
        os << "seamap-checkpoint 1\nlibrary 0.0.0\n";
    }
    CampaignCheckpointer ckpt(path, state_hash(design, make_config(256, 1)));
    try {
        (void)ckpt.load();
        FAIL() << "expected checkpoint_corrupt";
    } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::checkpoint_corrupt);
    }
    remove_checkpoint(path);
}

std::string file_bytes(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

TEST(CampaignCheckpoint, JournalIsAppendOnly) {
    // Every flush appends: each state of the file is a byte-prefix of
    // the next, and the final file is the header plus exactly one line
    // per shard, so the bytes written are O(shards).
    const Design design = make_design();
    const std::string path = ckpt_path("append_only");
    remove_checkpoint(path);
    const CampaignConfig config = make_config(256, 1);
    const CampaignEngine engine(design.problem.ser_model(), config);
    CampaignCheckpointer ckpt(path, state_hash(design, config));
    ckpt.set_cadence(1, 0.0);
    std::string seen;
    std::uint64_t checks = 0;
    ckpt.on_shard_recorded = [&](std::uint64_t) {
        const std::string now = file_bytes(path);
        EXPECT_EQ(now.substr(0, seen.size()), seen) << "after " << checks << " shards";
        seen = now;
        ++checks;
    };
    const CampaignReport report = run(design, engine, nullptr, &ckpt);
    EXPECT_EQ(checks, report.shards);
    const std::string final_bytes = file_bytes(path);
    EXPECT_EQ(final_bytes.substr(0, seen.size()), seen);

    const std::optional<std::vector<std::string>> records =
        Journal(path, "campaign", state_hash(design, config)).load();
    ASSERT_TRUE(records.has_value());
    EXPECT_EQ(records->size(), report.shards);
    std::size_t expected = final_bytes.find('\n') + 1; // the header
    for (const std::string& record : *records) expected += record.size() + 18; // " <16 hex>\n"
    EXPECT_EQ(final_bytes.size(), expected);
    remove_checkpoint(path);
}

/// Runs the campaign from a journal whose shard records `forge` edits
/// and the real writer rewrites; returns the error category it raises.
std::optional<ErrorCategory> resume_forged(
    const std::string& tag, const std::function<void(std::vector<std::string>&)>& forge) {
    const Design design = make_design();
    const std::string path = ckpt_path(tag);
    remove_checkpoint(path);
    const CampaignConfig config = make_config(256, 1);
    const CampaignEngine engine(design.problem.ser_model(), config);
    const std::uint64_t hash = state_hash(design, config);
    {
        CampaignCheckpointer ckpt(path, hash);
        CancellationToken cancel;
        ckpt.on_shard_recorded = [&](std::uint64_t done) {
            if (done >= 3) cancel.request_stop();
        };
        (void)run(design, engine, &cancel, &ckpt);
    }
    std::optional<std::vector<std::string>> records = Journal(path, "campaign", hash).load();
    if (!records || records->size() < 2) {
        ADD_FAILURE() << "the interrupted run left fewer than two shard records";
        return std::nullopt;
    }
    forge(*records);
    {
        Journal forged(path, "campaign", hash);
        for (std::string& record : *records) forged.append(std::move(record));
        forged.flush();
    }
    std::optional<ErrorCategory> raised;
    try {
        CampaignCheckpointer ckpt(path, hash);
        (void)ckpt.load();
        (void)run(design, engine, nullptr, &ckpt);
    } catch (const Error& e) {
        raised = e.category();
    }
    remove_checkpoint(path);
    return raised;
}

TEST(CampaignCheckpoint, ForgedShardIndexBeyondTheRunIsCorrupt) {
    // A shard index at or past the run's 12 shards, up to u64 max, is a
    // corrupt journal — never an allocation failure.
    for (const std::string index : {"12", "18446744073709551615"}) {
        EXPECT_EQ(resume_forged("index",
                                [&](std::vector<std::string>& records) {
                                    std::vector<std::string> fields = split(records[0], ' ');
                                    fields[1] = index;
                                    records[0] = join(fields, " ");
                                }),
                  ErrorCategory::checkpoint_corrupt)
            << index;
    }
}

TEST(CampaignCheckpoint, DuplicatedShardRecordIsCorrupt) {
    EXPECT_EQ(resume_forged("duplicate",
                            [](std::vector<std::string>& records) {
                                records.push_back(records[0]);
                            }),
              ErrorCategory::checkpoint_corrupt);
}

TEST(CampaignCheckpoint, WrongLengthHitVectorsAreCorrupt) {
    // The cores csv (second field from the end) or the tasks csv (last)
    // one entry short: in the last record only, or in every record.
    for (const std::size_t from_end : {std::size_t{2}, std::size_t{1}}) {
        for (const bool every : {false, true}) {
            const auto shorten = [&](std::string& record) {
                std::vector<std::string> fields = split(record, ' ');
                std::string& csv = fields[fields.size() - from_end];
                csv.erase(csv.rfind(','));
                record = join(fields, " ");
            };
            EXPECT_EQ(resume_forged("short",
                                    [&](std::vector<std::string>& records) {
                                        if (!every) return shorten(records.back());
                                        for (std::string& record : records) shorten(record);
                                    }),
                      ErrorCategory::checkpoint_corrupt)
                << "from_end=" << from_end << " every=" << every;
        }
    }
}

} // namespace
} // namespace seamap
