// End-to-end regression matrix for the seamap_cli failure surface:
// every error path must exit with the documented code (0 ok, 1 no
// feasible design, 2 failure, 3 interrupted), print exactly one
// `error:` line on stderr, and — under --json — emit the structured
// {"error": {"code", "message", ...}} object on stdout. Drives the
// real binary (SEAMAP_CLI_PATH, injected by CMake) through a shell.
#include "taskgraph/fig8.h"
#include "taskgraph/mpeg2.h"
#include "taskgraph/serialization.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/wait.h>

namespace seamap {
namespace {

struct RunResult {
    int status = -1; ///< exit code, or -1 when the process died abnormally
    std::string out;
    std::string err;
};

class CliErrorsTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::path(testing::TempDir()) /
               ("cli_errors_" +
                std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path_of(const std::string& name) const { return (dir_ / name).string(); }

    std::string fig8_path() {
        const std::string path = path_of("fig8.tg");
        save_task_graph(path, fig8_example_graph());
        return path;
    }

    std::string slurp(const std::string& path) const {
        std::ifstream is(path);
        return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
    }

    /// Run `<prefix> seamap_cli <args>` with stdout/stderr captured.
    RunResult run(const std::string& args, const std::string& prefix = "") const {
        const std::string out_path = path_of("stdout.txt");
        const std::string err_path = path_of("stderr.txt");
        const std::string command = prefix + std::string(SEAMAP_CLI_PATH) + " " + args +
                                    " > " + out_path + " 2> " + err_path;
        const int raw = std::system(command.c_str());
        RunResult result;
        if (raw != -1 && WIFEXITED(raw)) result.status = WEXITSTATUS(raw);
        result.out = slurp(out_path);
        result.err = slurp(err_path);
        return result;
    }

    std::filesystem::path dir_;
};

void expect_contains(const std::string& haystack, const std::string& needle) {
    EXPECT_NE(haystack.find(needle), std::string::npos)
        << "expected to find '" << needle << "' in:\n"
        << haystack;
}

TEST_F(CliErrorsTest, VersionExitsZero) {
    const RunResult r = run("version");
    EXPECT_EQ(r.status, 0);
    expect_contains(r.out, "seamap ");
}

TEST_F(CliErrorsTest, NoArgumentsIsUsageFailure) {
    const RunResult r = run("");
    EXPECT_EQ(r.status, 2);
    expect_contains(r.err, "subcommands:");
}

TEST_F(CliErrorsTest, UnknownSubcommandIsUsageFailure) {
    const RunResult r = run("frobnicate");
    EXPECT_EQ(r.status, 2);
    expect_contains(r.err, "unknown subcommand 'frobnicate'");
}

TEST_F(CliErrorsTest, HelpExitsZero) {
    const RunResult r = run("help");
    EXPECT_EQ(r.status, 0);
    expect_contains(r.out, "subcommands:");
}

TEST_F(CliErrorsTest, MissingGraphFileIsIoError) {
    const std::string missing = path_of("nope.tg");
    const RunResult text = run("info " + missing);
    EXPECT_EQ(text.status, 2);
    expect_contains(text.err, "error: ");
    expect_contains(text.err, missing);

    const RunResult json = run("info " + missing + " --json");
    EXPECT_EQ(json.status, 2);
    expect_contains(json.out, "\"error\"");
    expect_contains(json.out, "\"code\": \"io_error\"");
    expect_contains(json.out, "\"context\"");
}

TEST_F(CliErrorsTest, MalformedGraphIsParseErrorWithLine) {
    const std::string bad = path_of("bad.tg");
    {
        std::ofstream os(bad);
        os << "graph g\nbatches soon\n";
    }
    const RunResult text = run("info " + bad);
    EXPECT_EQ(text.status, 2);
    expect_contains(text.err, "error: ");
    expect_contains(text.err, "line 2");

    const RunResult json = run("optimize " + bad + " --cores 2 --json");
    EXPECT_EQ(json.status, 2);
    expect_contains(json.out, "\"code\": \"parse_error\"");
}

TEST_F(CliErrorsTest, BadOptionValueIsInvalidArgument) {
    const RunResult r =
        run("optimize " + fig8_path() + " --cores 2 --levels 7 --json");
    EXPECT_EQ(r.status, 2);
    expect_contains(r.out, "\"code\": \"invalid_argument\"");
    expect_contains(r.err, "--levels must be 2, 3 or 4");
}

TEST_F(CliErrorsTest, NoFeasibleDesignExitsOne) {
    // A deadline no scaling can meet: completed cleanly, found nothing.
    const std::string graph = fig8_path();
    const RunResult text = run("optimize " + graph + " --cores 2 --deadline 1e-9");
    EXPECT_EQ(text.status, 1);
    expect_contains(text.err, "no feasible design");

    const RunResult json =
        run("optimize " + graph + " --cores 2 --deadline 1e-9 --json");
    EXPECT_EQ(json.status, 1);
    expect_contains(json.out, "\"best\": null");
}

TEST_F(CliErrorsTest, ResumeWithoutCheckpointIsUsageError) {
    const RunResult r = run("optimize " + fig8_path() + " --cores 2 --resume --json");
    EXPECT_EQ(r.status, 2);
    expect_contains(r.out, "\"code\": \"usage\"");
    expect_contains(r.err, "--resume requires --checkpoint");
}

TEST_F(CliErrorsTest, ResumeWithoutSnapshotStartsFresh) {
    const RunResult r = run("optimize " + fig8_path() + " --cores 2 --checkpoint " +
                            path_of("fresh.ckpt") + " --resume");
    EXPECT_EQ(r.status, 0);
    expect_contains(r.err, "starting fresh");
}

TEST_F(CliErrorsTest, NanCheckpointIntervalIsInvalidArgument) {
    // A NaN interval would never be due, silently disabling timed flushes.
    const std::string graph = fig8_path();
    for (const std::string& command : {std::string("optimize"), std::string("campaign")}) {
        const RunResult r = run(command + " " + graph + " --cores 2 --checkpoint " +
                                path_of(command + ".ckpt") +
                                " --checkpoint-interval nan --json");
        EXPECT_EQ(r.status, 2) << command;
        expect_contains(r.out, "\"code\": \"invalid_argument\"");
        expect_contains(r.err, "must not be NaN");
    }
}

TEST_F(CliErrorsTest, NanCampaignWeightIsRejectedBeforeExploring) {
    // Rejected when the campaign engine is built, not after the
    // exploration inside a shard.
    const RunResult r = run("campaign " + fig8_path() + " --cores 2 --weight-pipeline nan");
    EXPECT_EQ(r.status, 2);
    expect_contains(r.err, "CampaignEngine");
}

TEST_F(CliErrorsTest, HugeCampaignIsInvalidArgumentNotBadAlloc) {
    // 2^64 - 1 trials in 1024-trial shards: the per-shard tables would
    // not fit, so the engine refuses the shape before exploring.
    const RunResult r =
        run("campaign " + fig8_path() + " --cores 2 --trials 18446744073709551615 --json");
    EXPECT_EQ(r.status, 2);
    expect_contains(r.out, "\"code\": \"invalid_argument\"");
    expect_contains(r.err, "18014398509481984 shards of 1024 trials");
    EXPECT_EQ(r.err.find("bad_alloc"), std::string::npos) << r.err;
}

TEST_F(CliErrorsTest, HugeScalingSpaceIsInvalidArgumentNotBadAlloc) {
    // 100000 cores x 4 levels: the lazy queue's visited bitmap over the
    // C(100003, 3) combinations would take 20 TiB, so the shape is
    // refused before anything is allocated.
    const RunResult r =
        run("optimize " + fig8_path() + " --cores 100000 --levels 4 --json");
    EXPECT_EQ(r.status, 2);
    expect_contains(r.out, "\"code\": \"invalid_argument\"");
    expect_contains(r.err, "166676666850001 scaling combinations");
    EXPECT_EQ(r.err.find("bad_alloc"), std::string::npos) << r.err;
}

TEST_F(CliErrorsTest, CorruptCheckpointIsRejected) {
    const std::string ckpt = path_of("broken.ckpt");
    {
        std::ofstream os(ckpt);
        os << "seamap-checkpoint 1\nnot a real snapshot\n";
    }
    const RunResult r = run("optimize " + fig8_path() + " --cores 2 --checkpoint " +
                            ckpt + " --resume --json");
    EXPECT_EQ(r.status, 2);
    expect_contains(r.out, "\"code\": \"checkpoint_corrupt\"");
    expect_contains(r.err, "error: ");
}

TEST_F(CliErrorsTest, MismatchedCheckpointIsRejected) {
    const std::string graph = fig8_path();
    const std::string ckpt = path_of("mismatch.ckpt");
    const RunResult first =
        run("optimize " + graph + " --cores 2 --checkpoint " + ckpt);
    ASSERT_EQ(first.status, 0);
    // Same snapshot, different problem: the state hash must not match.
    const RunResult second = run("optimize " + graph +
                                 " --cores 2 --deadline 0.4 --checkpoint " + ckpt +
                                 " --resume --json");
    EXPECT_EQ(second.status, 2);
    expect_contains(second.out, "\"code\": \"checkpoint_mismatch\"");
    expect_contains(second.err, "state hash");
}

TEST_F(CliErrorsTest, SigintExitsThreeAndResumeReproducesBaseline) {
    if (std::system("command -v timeout > /dev/null 2> /dev/null") != 0)
        GTEST_SKIP() << "no timeout(1) on this system";
    const std::string graph = path_of("mpeg2.tg");
    save_task_graph(graph, mpeg2_decoder_graph());
    const std::string ckpt = path_of("sigint.ckpt");
    const std::string opts =
        " --cores 4 --iterations 60000 --threads 2 --seed 3 --json";
    const RunResult baseline = run("optimize " + graph + opts);
    ASSERT_EQ(baseline.status, 0);

    const RunResult interrupted =
        run("optimize " + graph + opts + " --checkpoint " + ckpt +
                " --checkpoint-every 1",
            "timeout --preserve-status -s INT 0.2 ");
    if (interrupted.status == 3) {
        expect_contains(interrupted.err, "interrupted; checkpoint saved");
        expect_contains(interrupted.out, "\"code\": \"canceled\"");
        const RunResult resumed = run("optimize " + graph + opts + " --checkpoint " +
                                      ckpt + " --resume");
        EXPECT_EQ(resumed.status, 0);
        EXPECT_EQ(resumed.out, baseline.out);
    } else {
        // The box outran the signal: the run completed before SIGINT
        // landed — still a valid end-to-end pass, assert it was clean.
        EXPECT_EQ(interrupted.status, 0) << interrupted.err;
        EXPECT_EQ(interrupted.out, baseline.out);
    }
}

} // namespace
} // namespace seamap
