// The checkpoint journal: append-only flushes, the hash chain, loads
// that keep the longest valid prefix over a corpus of damaged files, and
// strict identity checks. Everything here runs against real files in
// the test temp directory, through a Checkpointer whose records are
// plain strings.
#include "util/checkpoint.h"

#include "support/journal.h"
#include "util/error.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

namespace seamap {
namespace {

class CheckpointTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::path(testing::TempDir()) /
               ("checkpoint_test_" +
                std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        path_ = (dir_ / "snap.ckpt").string();
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    /// A journal of three records at hash `hash`, the first tagged `marker`.
    void write_sample(std::uint64_t hash, const std::string& marker) const {
        Journal journal(path_, "dse", hash);
        for (const std::string& record : {"alpha " + marker, std::string("beta"),
                                          std::string("gamma 3")})
            journal.append(record);
        journal.flush();
    }

    std::optional<std::vector<std::string>> load(std::uint64_t hash,
                                                 const std::string& kind = "dse") const {
        Journal journal(path_, kind, hash);
        return journal.load();
    }

    std::string read_file() const {
        std::ifstream is(path_, std::ios::binary);
        return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
    }

    void write_file(const std::string& text) const {
        std::ofstream os(path_, std::ios::binary | std::ios::trunc);
        os << text;
    }

    void expect_corrupt(std::uint64_t hash, const std::string& label = "") const {
        try {
            (void)load(hash);
            ADD_FAILURE() << "expected checkpoint_corrupt " << label;
        } catch (const Error& e) {
            EXPECT_EQ(e.category(), ErrorCategory::checkpoint_corrupt) << label;
        }
    }

    std::filesystem::path dir_;
    std::string path_;
};

/// Byte offsets where each line of `text` starts, plus text.size().
std::vector<std::size_t> line_starts(const std::string& text) {
    std::vector<std::size_t> starts{0};
    for (std::size_t i = 0; i < text.size(); ++i)
        if (text[i] == '\n') starts.push_back(i + 1);
    return starts;
}

TEST_F(CheckpointTest, RoundTrip) {
    write_sample(0x1234, "one");
    const auto loaded = load(0x1234);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, (std::vector<std::string>{"alpha one", "beta", "gamma 3"}));
    EXPECT_EQ(read_file().rfind("seamap-checkpoint 2 ", 0), 0u);
}

TEST_F(CheckpointTest, MissingFileIsNullopt) { EXPECT_FALSE(load(1).has_value()); }

TEST_F(CheckpointTest, NoStaleTmpAfterSave) {
    // Flushes write the journal in place: nothing else is left beside it.
    write_sample(1, "x");
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir_))
        files.push_back(entry.path().filename().string());
    EXPECT_EQ(files, std::vector<std::string>{"snap.ckpt"});
}

TEST_F(CheckpointTest, SecondFlushAppends) {
    // A flush adds the pending records after what is on disk; a
    // load-then-flush continues the same chain.
    Journal journal(path_, "dse", 1);
    journal.append("first");
    journal.flush();
    const std::string after_first = read_file();
    journal.append("second");
    journal.flush();
    const std::string after_second = read_file();
    EXPECT_EQ(after_second.substr(0, after_first.size()), after_first);

    Journal resumed(path_, "dse", 1);
    ASSERT_EQ(resumed.load(), (std::vector<std::string>{"first", "second"}));
    resumed.append("third");
    resumed.flush();
    EXPECT_EQ(read_file().substr(0, after_second.size()), after_second);
    EXPECT_EQ(load(1), (std::vector<std::string>{"first", "second", "third"}));
}

TEST_F(CheckpointTest, FreshRunOverwritesAnOldJournal) {
    // Without a load, the run's first flush starts the file over.
    write_sample(1, "old");
    Journal journal(path_, "dse", 1);
    journal.append("new");
    journal.flush();
    EXPECT_EQ(load(1), (std::vector<std::string>{"new"}));
}

TEST_F(CheckpointTest, TornLastLineIsDropped) {
    write_sample(1, "good");
    const std::string full = read_file();
    const std::vector<std::size_t> starts = line_starts(full);
    ASSERT_EQ(starts.size(), 5u); // header, three records, end
    // Every cut inside the last record (its newline included) keeps the
    // first two records; a cut exactly at a line end keeps whole lines.
    for (std::size_t keep = starts[3]; keep < full.size(); ++keep) {
        write_file(full.substr(0, keep));
        const auto loaded = load(1);
        ASSERT_TRUE(loaded.has_value()) << "keep=" << keep;
        EXPECT_EQ(*loaded, (std::vector<std::string>{"alpha good", "beta"})) << "keep=" << keep;
    }
    // A cut inside the header leaves no journal to resume.
    for (const std::size_t keep : {std::size_t{1}, std::size_t{10}, starts[1] - 1}) {
        write_file(full.substr(0, keep));
        expect_corrupt(1, "keep=" + std::to_string(keep));
    }
    // A torn tail is cut off by the next run's first flush, so the new
    // record never lands behind it.
    write_file(full.substr(0, starts[3] + 3));
    Journal resumed(path_, "dse", 1);
    ASSERT_EQ(resumed.load(), (std::vector<std::string>{"alpha good", "beta"}));
    resumed.append("delta");
    resumed.flush();
    EXPECT_EQ(load(1), (std::vector<std::string>{"alpha good", "beta", "delta"}));
}

TEST_F(CheckpointTest, BitFlipInMiddleLineIsCorrupt) {
    write_sample(1, "good");
    std::string full = read_file();
    const std::size_t pos = full.find("beta");
    ASSERT_NE(pos, std::string::npos);
    full[pos] = 'B';
    write_file(full);
    expect_corrupt(1);
}

TEST_F(CheckpointTest, DuplicatedOrSwappedLinesAreCorrupt) {
    write_sample(1, "good");
    const std::string full = read_file();
    const std::vector<std::size_t> starts = line_starts(full);
    auto line = [&](std::size_t i) { return full.substr(starts[i], starts[i + 1] - starts[i]); };
    write_file(line(0) + line(1) + line(1) + line(2) + line(3));
    expect_corrupt(1, "duplicated");
    write_file(line(0) + line(2) + line(1) + line(3));
    expect_corrupt(1, "swapped");
}

TEST_F(CheckpointTest, FormatOneFileIsCorrupt) {
    // A snapshot of the retired format 1 has no checksummed header line.
    write_file("seamap-checkpoint 1\nlibrary 0.9.0\nkind dse\nhash 0000000000000001\n"
               "lines 0\nchecksum 0123456789abcdef\n");
    try {
        (void)load(1);
        FAIL() << "expected checkpoint_corrupt";
    } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::checkpoint_corrupt);
        EXPECT_NE(std::string(e.what()).find("not a format-2 journal"), std::string::npos)
            << e.what();
    }
    write_file("garbage\n");
    expect_corrupt(1, "garbage");
}

TEST_F(CheckpointTest, EmptyFileWithoutPrevRaisesCorrupt) {
    write_file("");
    expect_corrupt(1);
}

TEST_F(CheckpointTest, WrongHashIsMismatchNamingBothSides) {
    write_sample(0xabcd, "x");
    try {
        (void)load(0x9999);
        FAIL() << "expected checkpoint_mismatch";
    } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::checkpoint_mismatch);
        const std::string what = e.what();
        EXPECT_NE(what.find(hex_of_u64(0xabcd)), std::string::npos) << what;
        EXPECT_NE(what.find(hex_of_u64(0x9999)), std::string::npos) << what;
    }
}

TEST_F(CheckpointTest, WrongKindIsMismatch) {
    write_sample(1, "x");
    try {
        (void)load(1, "campaign");
        FAIL() << "expected checkpoint_mismatch";
    } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::checkpoint_mismatch);
    }
}

TEST_F(CheckpointTest, RemoveDeletesEverything) {
    write_sample(1, "a");
    remove_checkpoint(path_);
    EXPECT_FALSE(std::filesystem::exists(path_));
    remove_checkpoint(path_); // idempotent
}

TEST(RecordFields, ReadsWhatTheCodecsWrite) {
    const std::vector<std::uint64_t> hits = {0, 7, 18446744073709551615ULL};
    const RecordFields fields("j.ckpt", "shard 42 " + hex_of_double(-1.5) + ' ' +
                                            csv_of(hits) + ' ' +
                                            csv_of(std::vector<std::uint64_t>{}));
    ASSERT_EQ(fields.size(), 5u);
    EXPECT_EQ(fields[0], "shard");
    EXPECT_EQ(fields.u64(1), 42u);
    EXPECT_EQ(fields.hex_double(2), -1.5);
    EXPECT_EQ(fields.u64s(3), hits);
    EXPECT_TRUE(fields.u64s(4).empty());
}

TEST(RecordFields, MalformedFieldsAreCorruptNamingTheJournal) {
    // Field 1 read as a u64, field 2 as a hex double, field 3 as a csv.
    const std::string path = "dir/run.ckpt";
    const std::string hex = hex_of_double(0.25);
    const auto expect_corrupt = [&](const std::string& record, auto read) {
        try {
            read(RecordFields(path, record));
            ADD_FAILURE() << "accepted '" << record << "'";
        } catch (const Error& e) {
            EXPECT_EQ(e.category(), ErrorCategory::checkpoint_corrupt) << record;
            EXPECT_EQ(e.context(), path) << record;
        }
    };
    for (const std::string u64 : {"x1", "-1", "", "18446744073709551616"})
        expect_corrupt("r " + u64 + ' ' + hex + " 1",
                       [](const RecordFields& f) { (void)f.u64(1); });
    for (const std::string& dbl : {hex.substr(1), hex + "0", std::string(16, 'g')})
        expect_corrupt("r 1 " + dbl + " 1", [](const RecordFields& f) { (void)f.hex_double(2); });
    for (const std::string csv : {"1,,2", "1,2,", ",1", "1,x", "1,18446744073709551616"})
        expect_corrupt("r 1 " + hex + ' ' + csv,
                       [](const RecordFields& f) { (void)f.u64s(3); });
    expect_corrupt("r 1", [](const RecordFields& f) { (void)f.u64(2); });
    expect_corrupt("r 1", [](const RecordFields& f) { f.fail("rejected by its codec"); });
}

TEST(CheckpointHex, DoubleRoundTripIsBitExact) {
    for (const double x : {0.0, -0.0, 1.0, -1.5, 3.141592653589793, 1e-300, 1e300,
                           0.1, 2.2250738585072014e-308}) {
        const std::string hex = hex_of_double(x);
        EXPECT_EQ(hex.size(), 16u);
        const double back = double_of_hex(hex);
        EXPECT_EQ(std::memcmp(&back, &x, sizeof x), 0) << x;
    }
}

TEST(CheckpointHex, U64RoundTrip) {
    for (const std::uint64_t x :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xdeadbeefcafebabeULL},
          ~std::uint64_t{0}}) {
        EXPECT_EQ(u64_of_hex(hex_of_u64(x)), x);
    }
}

TEST(CheckpointHex, BadHexIsParseError) {
    EXPECT_THROW((void)u64_of_hex("not-hex-at-all!!"), Error);
    EXPECT_THROW((void)u64_of_hex(""), Error);
    EXPECT_THROW((void)u64_of_hex("0123456789abcdef0"), Error); // 17 digits
    EXPECT_THROW((void)double_of_hex("12x4"), Error);
}

TEST(CheckpointHash, StreamIsOrderSensitive) {
    HashStream a, b;
    a.mix(1);
    a.mix(2);
    b.mix(2);
    b.mix(1);
    EXPECT_NE(a.value(), b.value());
    HashStream c, d;
    c.mix("xy");
    c.mix("z");
    d.mix("x");
    d.mix("yz");
    EXPECT_NE(c.value(), d.value());
}

} // namespace
} // namespace seamap
