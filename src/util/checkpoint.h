// Versioned, crash-safe snapshot files — the persistence layer under
// the exploration (core/dse_checkpoint.h) and campaign
// (sim/campaign_checkpoint.h) checkpoints.
//
// A checkpoint is a line-oriented text document:
//
//   seamap-checkpoint <format>        # magic + format version
//   library <x.y.z>                   # writing library version
//   kind <dse|campaign|...>           # which subsystem owns the payload
//   hash <16 hex digits>              # content hash of the producing state
//   lines <n>                         # payload line count
//   <n payload lines>                 # owner-defined
//   checksum <16 hex digits>          # FNV-1a 64 over every byte above
//
// Safety properties:
//  - Writes are atomic: the document is written to "<path>.tmp",
//    fsync'd, and renamed over <path>; a crash mid-write never damages
//    the previous snapshot. The previous snapshot is first rotated to
//    "<path>.prev", so one good fallback always survives a torn rename
//    window.
//  - Loads are tolerant: a truncated, bit-flipped or otherwise mangled
//    file fails the trailing checksum (or the structure checks) and the
//    loader falls back to "<path>.prev"; only when every candidate is
//    corrupt does it raise Error(checkpoint_corrupt).
//  - Loads are strict about identity: a wrong kind, a different
//    producing-state hash or an incompatible library version raises
//    Error(checkpoint_mismatch) with a diagnostic naming both sides —
//    resuming against the wrong problem is never silent.
//
// Payload encodings need bit-exact doubles to keep resumed results
// byte-identical, so hex_of_double/double_of_hex round-trip the IEEE
// bit pattern instead of going through decimal.
#pragma once

#include "util/cancellation.h"

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace seamap {

/// Current on-disk format version; bump when the envelope (not a
/// payload) changes shape. See CONTRIBUTING.md "Checkpoint format &
/// versioning" for the evolution rules.
inline constexpr std::uint64_t k_checkpoint_format = 1;

/// One snapshot: the owner's kind tag, the content hash of the state
/// that produced it, and the owner-defined payload lines.
struct CheckpointData {
    std::string kind;
    std::uint64_t state_hash = 0;
    std::vector<std::string> lines;
};

/// Result of a tolerant load.
struct CheckpointLoad {
    CheckpointData data;
    /// True when <path> was corrupt and "<path>.prev" supplied the data.
    bool from_fallback = false;
};

/// Atomically persist `data` at `path` (tmp + fsync + rename), rotating
/// any existing snapshot to "<path>.prev" first. Throws Error(io) when
/// the file system refuses.
void save_checkpoint(const std::string& path, const CheckpointData& data);

/// Load the snapshot at `path`, falling back to "<path>.prev" when the
/// primary is corrupt. Returns nullopt when neither file exists. Throws
/// Error(checkpoint_corrupt) when every existing candidate is damaged,
/// and Error(checkpoint_mismatch) when the snapshot's kind, state hash
/// or library version disagrees with the caller's expectation.
std::optional<CheckpointLoad> load_checkpoint(const std::string& path,
                                              std::string_view expected_kind,
                                              std::uint64_t expected_hash);

/// Remove `path`, its ".prev" rotation and any stale ".tmp"; used after
/// a run completes and by tests. Missing files are not an error.
void remove_checkpoint(const std::string& path);

/// The lifecycle the explorer and campaign checkpointers share: one
/// snapshot path of one kind and state hash, the flush cadence, and the
/// mutex that serializes recording and flushing. A subclass counts the
/// units it has recorded and renders its payload, both under mutex_.
class Checkpointer {
public:
    Checkpointer(std::string path, std::string kind, std::uint64_t state_hash);

    /// Flush cadence: persist after every `every` newly recorded units
    /// (0 = never by count) and whenever `interval_seconds` elapsed since
    /// the last flush (0 = never by time). flush() is always available.
    void set_cadence(std::uint64_t every, double interval_seconds);
    void maybe_flush(); ///< persist when the cadence is due and units are new
    void flush();       ///< persist now when units are new
    void remove();      ///< delete the snapshot files (remove_checkpoint)
    const std::string& path() const { return path_; }

protected:
    ~Checkpointer() = default; // never deleted through the base
    std::optional<CheckpointLoad> load_snapshot() const; ///< of this path, kind and hash
    /// Under mutex_: the first `recorded` units are on disk.
    void set_flushed_locked(std::uint64_t recorded) { flushed_ = recorded; }
    virtual std::uint64_t recorded_locked() const = 0;
    virtual std::vector<std::string> payload_locked() const = 0;

    mutable std::mutex mutex_;

private:
    void flush_locked();

    std::string path_, kind_;
    std::uint64_t state_hash_, flushed_ = 0, every_ = 0;
    IntervalTimer timer_{0.0};
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

/// Bit-exact double <-> 16-hex-digit rendering for payloads.
std::string hex_of_double(double x);
double double_of_hex(std::string_view hex); ///< throws Error(parse)

std::string hex_of_u64(std::uint64_t x);
std::uint64_t u64_of_hex(std::string_view hex); ///< throws Error(parse)

} // namespace seamap
