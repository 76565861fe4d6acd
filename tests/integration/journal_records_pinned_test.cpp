// The record bytes of both checkpoint journals, pinned. Journals
// written by an earlier build of this library line must keep resuming,
// so the record codecs may not move a byte: every record of a fig8
// explore (feasible and no-design slots) and of an MPEG-2 campaign,
// each flushed at cadence 1, is digested with FNV-1a 64 and compared
// against literals taken before the codecs last changed. The state hashes that key both journals are
// pinned alongside.
#include "seamap/seamap.h"

#include "sim/campaign_checkpoint.h"
#include "support/journal.h"
#include "taskgraph/fig8.h"
#include "taskgraph/mpeg2.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

namespace seamap {
namespace {

/// One digest per record of the journal at `path`, in file order.
std::vector<std::string> record_digests(const std::string& path, const std::string& kind,
                                        std::uint64_t state_hash) {
    const std::optional<std::vector<std::string>> records =
        Journal(path, kind, state_hash).load();
    std::vector<std::string> out;
    if (!records) return out;
    for (const std::string& record : *records) out.push_back(hex_of_u64(fnv1a64(record)));
    return out;
}

std::string journal_path(const std::string& tag) {
    const std::string path = testing::TempDir() + "/journal_records_pinned_" + tag + ".ckpt";
    remove_checkpoint(path);
    return path;
}

TEST(JournalRecordsPinned, Fig8ExploreRecords) {
    const Problem problem = ProblemBuilder()
                                .graph(fig8_example_graph())
                                .architecture(4, VoltageScalingTable::arm7_three_level())
                                .deadline_seconds(0.1)
                                .build();
    ExploreOptions options;
    options.dse.search.max_iterations = 60;
    options.dse.search.seed = 7;
    const std::uint64_t hash = explore_state_hash(problem, options);
    EXPECT_EQ(hex_of_u64(hash), "6160e921f9d0d981");

    const std::string path = journal_path("dse");
    {
        DseCheckpointer checkpoint(path, hash);
        checkpoint.set_cadence(1, 0.0);
        const DseResult result = explore(problem, options, nullptr, nullptr, &checkpoint);
        ASSERT_TRUE(result.best.has_value());
    }
    const std::vector<std::string> expected = {
        "fc4689fec78afc14", "2113f5bd437c9810", "7f46f9ec005f47a3", "5b330ff5e074bf12",
        "13bdc997efdb0814", "b8d0f00917d74e64", "6838417ea2b97551", "8c719d95d2e986c2",
        "c7ef0df793d2fc3f", "38bd033d52e32596"};
    EXPECT_EQ(record_digests(path, "dse", hash), expected);
    remove_checkpoint(path);
}

TEST(JournalRecordsPinned, Mpeg2CampaignRecords) {
    const TaskGraph graph = mpeg2_decoder_graph();
    const MpsocArchitecture arch(4, VoltageScalingTable::arm7_three_level());
    const ScalingVector levels = {2, 2, 3, 2};
    const Mapping mapping = round_robin_mapping(graph, 4);
    const Schedule schedule = ListScheduler{}.schedule(graph, mapping, arch, levels);
    CampaignConfig config;
    config.trials = 3000;
    config.shard_size = 256;
    config.seed = 2;
    const SerModel ser;
    const std::uint64_t hash =
        campaign_state_hash(graph, mapping, arch, levels, schedule, ser, config);
    EXPECT_EQ(hex_of_u64(hash), "6dae2e4c8d3506bf");

    const std::string path = journal_path("campaign");
    {
        // One thread: shards finish, and so are recorded, in index order.
        CampaignCheckpointer checkpoint(path, hash);
        checkpoint.set_cadence(1, 0.0);
        const CampaignReport report = CampaignEngine(ser, config).run(
            graph, mapping, arch, levels, schedule, nullptr, &checkpoint);
        ASSERT_EQ(report.shards_completed, 12u);
    }
    const std::vector<std::string> expected = {
        "54d82064c0307541", "87eafb6111a78d62", "c75bd7de1a70c586", "57a25bf7c1649e9b",
        "32084c26e0867d87", "a4d52104caad3d44", "d492268fb06c6d41", "168f56be5968ef22",
        "e1da5e46ebb9759a", "c6edaf09d2080557", "ba6f9e5d5444ae91", "f603efa1cf57b26c"};
    EXPECT_EQ(record_digests(path, "campaign", hash), expected);
    remove_checkpoint(path);
}

} // namespace
} // namespace seamap
