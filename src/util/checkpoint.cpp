#include "util/checkpoint.h"

#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/version.h"

#include <bit>
#include <cerrno>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

namespace seamap {

namespace {

constexpr std::string_view k_magic = "seamap-checkpoint";

/// Checkpoints are resumable only within the library minor line: the
/// record encodings are owned by code that may change between minors.
std::string compatible_version_prefix() {
    return std::to_string(k_version_major) + "." + std::to_string(k_version_minor) + ".";
}

/// The checksum of a record line that follows the line summed `prev`.
std::uint64_t chained(std::uint64_t prev, std::string_view record) {
    std::string bytes = hex_of_u64(prev);
    bytes += record;
    return fnv1a64(bytes);
}

/// Splits "<body> <checksum>"; nullopt when there is no hex checksum.
std::optional<std::pair<std::string_view, std::uint64_t>> split_checksum(
    std::string_view line) {
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos) return std::nullopt;
    try {
        return std::pair{line.substr(0, space), u64_of_hex(line.substr(space + 1))};
    } catch (const Error&) {
        return std::nullopt;
    }
}

/// Cut `path` (created when missing) to its first `keep` bytes, append
/// `text` and flush it to stable storage before returning. Throws
/// Error(io) on any failure.
void append_synced(const std::string& path, std::uint64_t keep, const std::string& text) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) throw Error(ErrorCategory::io, "cannot open checkpoint for writing", path);
    auto fail = [&](const char* what) {
        ::close(fd);
        throw Error(ErrorCategory::io, what, path);
    };
    if (::ftruncate(fd, static_cast<::off_t>(keep)) != 0) fail("checkpoint truncate failed");
    std::size_t written = 0;
    while (written < text.size()) {
        const ::ssize_t n = ::write(fd, text.data() + written, text.size() - written);
        if (n < 0 && errno != EINTR) fail("checkpoint write failed");
        if (n > 0) written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) fail("checkpoint fsync failed");
    if (::close(fd) != 0) throw Error(ErrorCategory::io, "checkpoint close failed", path);
}

/// Flush the directory entry of a newly created `path` so the file
/// itself is durable. Best effort: some file systems refuse it.
void sync_parent_dir(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd < 0) return;
    ::fsync(fd);
    ::close(fd);
}

} // namespace

Checkpointer::Checkpointer(std::string path, std::string kind, std::uint64_t state_hash)
    : path_(std::move(path)), kind_(std::move(kind)), state_hash_(state_hash) {}

void Checkpointer::set_cadence(std::uint64_t every, double interval_seconds) {
    std::lock_guard lock(mutex_);
    every_ = every;
    timer_ = IntervalTimer(interval_seconds);
}

void Checkpointer::maybe_flush() {
    std::unique_lock lock(mutex_);
    if (writing_ || pending_.empty()) return; // the next flush takes them
    const bool by_count = every_ > 0 && pending_.size() >= every_;
    if (!by_count && !timer_.due()) return;
    flush_locked(lock);
}

void Checkpointer::flush() {
    std::unique_lock lock(mutex_);
    written_.wait(lock, [&] { return !writing_; });
    if (!pending_.empty()) flush_locked(lock);
}

std::uint64_t Checkpointer::append(std::string record) {
    std::lock_guard lock(mutex_);
    pending_.push_back(std::move(record));
    return ++records_;
}

std::optional<std::vector<std::string>> Checkpointer::load_records() {
    std::ifstream is(path_, std::ios::binary);
    if (!is) return std::nullopt;
    const std::string text{std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
    auto corrupt = [&](const std::string& why) {
        return Error(ErrorCategory::checkpoint_corrupt, "corrupt checkpoint: " + why, path_);
    };
    auto mismatch = [&](const std::string& why) {
        return Error(ErrorCategory::checkpoint_mismatch, why, path_);
    };

    const std::size_t header_end = text.find('\n');
    const auto header = header_end == std::string::npos
                            ? std::nullopt
                            : split_checksum(std::string_view(text).substr(0, header_end));
    std::vector<std::string> fields;
    if (header && header->second == fnv1a64(header->first)) fields = split(header->first, ' ');
    if (fields.size() != 5 || fields[0] != k_magic)
        throw corrupt("not a format-" + std::to_string(k_checkpoint_format) +
                      " journal (missing or damaged header)");
    if (fields[1] != std::to_string(k_checkpoint_format))
        throw mismatch("checkpoint format " + fields[1] + " is not the supported format " +
                       std::to_string(k_checkpoint_format));
    if (fields[3] != kind_)
        throw mismatch("checkpoint kind '" + fields[3] + "' does not match expected '" +
                       kind_ + "'");
    const std::string prefix = compatible_version_prefix();
    if (fields[2].substr(0, prefix.size()) != prefix)
        throw mismatch("checkpoint written by library " + fields[2] +
                       " is not resumable by this " + std::string(k_version_string));
    if (fields[4] != hex_of_u64(state_hash_))
        throw mismatch("checkpoint state hash " + fields[4] + " does not match this run's " +
                       hex_of_u64(state_hash_) +
                       " — different problem, parameters or strategy");

    std::vector<std::string> records;
    std::uint64_t chain = header->second;
    std::size_t valid = header_end + 1;
    while (valid < text.size()) {
        const std::size_t end = text.find('\n', valid);
        const auto line = end == std::string::npos
                              ? std::nullopt
                              : split_checksum(std::string_view(text).substr(valid, end - valid));
        if (!line || line->second != chained(chain, line->first)) {
            // A crash tears only the last line; damage before it is not a crash.
            if (end == std::string::npos || end + 1 == text.size()) break;
            throw corrupt("line " + std::to_string(records.size() + 2) +
                          " breaks the checksum chain");
        }
        records.emplace_back(line->first);
        chain = line->second;
        valid = end + 1;
    }
    std::lock_guard lock(mutex_);
    pending_.clear();
    records_ = records.size();
    valid_bytes_ = valid;
    chain_ = chain;
    return records;
}

void Checkpointer::flush_locked(std::unique_lock<std::mutex>& lock) {
    std::string text;
    std::uint64_t chain = chain_;
    if (valid_bytes_ == 0) {
        const std::string header = std::string(k_magic) + ' ' +
                                   std::to_string(k_checkpoint_format) + ' ' +
                                   std::string(k_version_string) + ' ' + kind_ + ' ' +
                                   hex_of_u64(state_hash_);
        chain = fnv1a64(header);
        text = header + ' ' + hex_of_u64(chain) + '\n';
    }
    for (const std::string& record : pending_) {
        chain = chained(chain, record);
        text += record + ' ' + hex_of_u64(chain) + '\n';
    }
    const std::uint64_t keep = valid_bytes_;
    std::vector<std::string> batch = std::exchange(pending_, {});
    writing_ = true;
    timer_.reset();
    // Recording goes on while the file is written and synced.
    lock.unlock();
    try {
        // Cutting to the valid prefix drops a torn tail after a load (or
        // a whole journal on a fresh run), so no record lands behind one.
        append_synced(path_, keep, text);
        if (keep == 0) sync_parent_dir(path_);
    } catch (...) {
        // The next flush retries the records, cutting off whatever part
        // of this one reached the file.
        lock.lock();
        pending_.insert(pending_.begin(), std::make_move_iterator(batch.begin()),
                        std::make_move_iterator(batch.end()));
        writing_ = false;
        written_.notify_all();
        throw;
    }
    lock.lock();
    valid_bytes_ = keep + text.size();
    chain_ = chain;
    writing_ = false;
    written_.notify_all();
}

std::uint64_t fnv1a64(std::string_view bytes) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

void HashStream::mix(std::uint64_t x) { state_ = splitmix64(state_ ^ x); }

void HashStream::mix(std::string_view text) {
    mix(fnv1a64(text));
    mix(text.size());
}

void HashStream::mix_double(double x) { mix(std::bit_cast<std::uint64_t>(x)); }

std::string hex_of_double(double x) { return hex_of_u64(std::bit_cast<std::uint64_t>(x)); }

double double_of_hex(std::string_view hex) {
    return std::bit_cast<double>(u64_of_hex(hex));
}

std::string hex_of_u64(std::uint64_t x) {
    static constexpr char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (std::size_t i = 0; i < 16; ++i)
        out[15 - i] = digits[(x >> (4 * i)) & 0xfULL];
    return out;
}

std::uint64_t u64_of_hex(std::string_view hex) {
    if (hex.empty() || hex.size() > 16)
        throw Error(ErrorCategory::parse, "bad hex64 field: '" + std::string(hex) + "'");
    std::uint64_t value = 0;
    for (const char c : hex) {
        value <<= 4;
        if (c >= '0' && c <= '9')
            value |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            value |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            throw Error(ErrorCategory::parse, "bad hex64 field: '" + std::string(hex) + "'");
    }
    return value;
}

RecordFields::RecordFields(std::string path, std::string_view record)
    : path_(std::move(path)), fields_(split(record, ' ')) {}

const std::string& RecordFields::at(std::size_t i) const {
    if (i >= fields_.size()) fail("missing field " + std::to_string(i));
    return fields_[i];
}

std::uint64_t RecordFields::u64(std::size_t i) const {
    try {
        return parse_u64(at(i));
    } catch (const std::invalid_argument&) {
        fail("bad u64 field '" + at(i) + "'");
    }
}

double RecordFields::hex_double(std::size_t i) const {
    try {
        if (at(i).size() == 16) return double_of_hex(at(i));
    } catch (const Error&) {
    }
    fail("bad hex double field '" + at(i) + "'");
}

std::vector<std::uint64_t> RecordFields::u64s(std::size_t i) const {
    std::vector<std::uint64_t> out;
    if (at(i).empty()) return out;
    for (const std::string& entry : split(at(i), ',')) {
        try {
            out.push_back(parse_u64(entry));
        } catch (const std::invalid_argument&) {
            fail("bad list entry '" + entry + "' in '" + at(i) + "'");
        }
    }
    return out;
}

void RecordFields::fail(const std::string& why) const {
    throw Error(ErrorCategory::checkpoint_corrupt, "corrupt checkpoint record: " + why, path_);
}

} // namespace seamap
