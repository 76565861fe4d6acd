// Crash-safe checkpoint journals — the persistence layer under the
// exploration (core/dse_checkpoint.h) and campaign
// (sim/campaign_checkpoint.h) checkpoints.
//
// A checkpoint is an append-only, hash-chained text journal:
//
//   seamap-checkpoint 2 <library> <kind> <state-hash> <checksum>
//   <record> <checksum>               # one line per recorded unit
//   ...
//
// The header names the format, the writing library version, the owner
// kind (dse, campaign) and the content hash of the producing state.
// Every checksum is FNV-1a 64 over the previous line's checksum (16 hex
// digits; none for the header) followed by this line's record, so a
// flipped, duplicated or reordered line breaks the chain.
//
// Safety properties:
//  - Flushes only append: each writes the pending records after the
//    journal's valid prefix and fsyncs them, so bytes written grow with
//    the record count. A flush first cuts the file back to that prefix
//    (empty on a fresh run), so a torn tail left by a crash or a failed
//    write never ends up between old and new records.
//  - Loads keep the longest valid prefix. A bad last line is the torn
//    tail of a crash and is dropped; a bad line with lines after it,
//    or a missing or damaged header, raises Error(checkpoint_corrupt).
//  - Loads are strict about identity: a wrong format, kind, library
//    line or producing-state hash raises Error(checkpoint_mismatch)
//    with a diagnostic naming both sides — resuming against the wrong
//    problem is never silent.
//
// Record encodings need bit-exact doubles to keep resumed results
// byte-identical, so hex_of_double/double_of_hex round-trip the IEEE
// bit pattern instead of going through decimal. Both record codecs
// (explore and campaign) read their fields through RecordFields.
#pragma once

#include "util/cancellation.h"

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace seamap {

/// Current on-disk format version; bump when the journal layout (not a
/// record) changes shape. See CONTRIBUTING.md "Checkpoint format &
/// versioning" for the evolution rules.
inline constexpr std::uint64_t k_checkpoint_format = 2;

/// The journal the explorer and campaign checkpointers share: one path
/// of one kind and state hash, the flush cadence, and the records
/// pending since the last flush. An owner encodes its units as records
/// and append()s them; a flush writes and fsyncs with the lock
/// released, so appending never waits on the disk. Thread-safe.
class Checkpointer {
public:
    Checkpointer(std::string path, std::string kind, std::uint64_t state_hash);

    /// Flush cadence: persist after every `every` newly appended records
    /// (0 = never by count) and whenever `interval_seconds` elapsed since
    /// the last flush (0 = never by time). flush() is always available.
    void set_cadence(std::uint64_t every, double interval_seconds);
    void maybe_flush(); ///< persist when the cadence is due and records are pending
    void flush();       ///< persist now when records are pending
    /// Queue one record (no newline) for the next flush; returns the
    /// journal's record count, loaded plus appended.
    std::uint64_t append(std::string record);
    const std::string& path() const { return path_; }

protected:
    ~Checkpointer() = default; // never deleted through the base
    /// The records of the journal's valid prefix, after which later
    /// flushes append. Returns nullopt when no journal exists; throws
    /// Error(checkpoint_corrupt/_mismatch) as the file comment says.
    std::optional<std::vector<std::string>> load_records();

private:
    /// Writes the pending records with `lock` on mutex_ released for
    /// the write and fsync; one flush writes at a time.
    void flush_locked(std::unique_lock<std::mutex>& lock);

    std::mutex mutex_;
    std::string path_, kind_;
    std::uint64_t state_hash_, every_ = 0;
    IntervalTimer timer_{0.0};
    std::vector<std::string> pending_;
    std::uint64_t records_ = 0;     ///< loaded plus appended
    std::uint64_t valid_bytes_ = 0; ///< length of the journal on disk
    std::uint64_t chain_ = 0;       ///< checksum of its last line
    bool writing_ = false;          ///< a flush is writing with mutex_ released
    std::condition_variable written_;
};

/// FNV-1a 64-bit checksum over `bytes`.
std::uint64_t fnv1a64(std::string_view bytes);

/// Order-sensitive content-hash accumulator: fold values with mix()
/// and read the digest with value(). Built on splitmix64, so single-bit
/// input changes diffuse through the whole digest.
class HashStream {
public:
    void mix(std::uint64_t x);
    void mix(std::string_view text);
    /// Hashes the IEEE-754 bit pattern — bit-exact, no rounding.
    void mix_double(double x);

    std::uint64_t value() const { return state_; }

private:
    std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Bit-exact double <-> 16-hex-digit rendering for records.
std::string hex_of_double(double x);
double double_of_hex(std::string_view hex); ///< throws Error(parse)

std::string hex_of_u64(std::uint64_t x);
std::uint64_t u64_of_hex(std::string_view hex); ///< throws Error(parse)

/// Comma-separated decimal integers, the list field of a record.
template <typename Int>
std::string csv_of(const std::vector<Int>& xs) {
    std::string out;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(xs[i]);
    }
    return out;
}

/// The space-separated fields of one record of the journal at `path`.
/// Every reader, and fail(), throws Error(checkpoint_corrupt) naming
/// the journal.
class RecordFields {
public:
    RecordFields(std::string path, std::string_view record);

    std::size_t size() const { return fields_.size(); }
    const std::string& operator[](std::size_t i) const { return fields_[i]; }

    std::uint64_t u64(std::size_t i) const; ///< a decimal u64
    /// Exactly the 16 hex digits hex_of_double writes.
    double hex_double(std::size_t i) const;
    /// A csv_of list; the empty field is the empty list.
    std::vector<std::uint64_t> u64s(std::size_t i) const;

    [[noreturn]] void fail(const std::string& why) const;

private:
    const std::string& at(std::size_t i) const; ///< fails when missing

    std::string path_;
    std::vector<std::string> fields_;
};

} // namespace seamap
