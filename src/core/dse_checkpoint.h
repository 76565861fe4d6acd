// Crash-safe checkpoint/resume for the design-space explorer
// (core/dse.h), built on the checkpoint journal (util/checkpoint.h).
//
// What is persisted — and why it is exactly resumable: the explorer's
// replay ledger decides every gate-passing slot in pop order, and each
// slot's replay decision depends only on the folded outcomes of
// *earlier* slots. The contiguous prefix of decided slots is
// therefore replay-stable: record each prefix slot's replay outcome
// ({pruned | no feasible design | feasible(point)}) and a resumed run
// that preloads the prefix and searches only the remaining slots
// reproduces the uninterrupted run byte-for-byte — at any thread
// count, since thread count never influences replay decisions.
//
// Journals are keyed by dse_state_hash(), a content hash of everything
// that determines the byte-exact outcome (graph, architecture,
// deadline, SER model, search parameters, strategy name). The thread
// count, which the result is provably invariant to, is excluded, so a
// run checkpointed at 8 threads resumes correctly at 1. Resuming
// against a different problem fails with Error(checkpoint_mismatch).
#pragma once

#include "arch/mpsoc.h"
#include "core/dse.h"
#include "reliability/ser_model.h"
#include "reliability/seu_estimator.h"
#include "taskgraph/task_graph.h"
#include "util/checkpoint.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace seamap {

/// Replay outcome of one decided slot, in slot pop order.
struct DseSlotRecord {
    enum class Kind : unsigned char {
        pruned,    ///< bounds strictly dominated by an earlier survivor
        no_design, ///< searched, no feasible mapping found
        feasible,  ///< searched, `point` holds the folded best design
    };
    /// Enumeration index of the scaling combination (cross-checked
    /// against the recomputed plan on resume).
    std::uint64_t combo = 0;
    Kind kind = Kind::pruned;
    DsePoint point; ///< feasible only
};

/// Parsed resume state: the decided prefix in slot pop order.
struct DseResumeState {
    std::vector<DseSlotRecord> records;
};

/// What load() found, for caller messaging.
struct DseResumeInfo {
    std::uint64_t slots_decided = 0;
};

/// Content hash of the exploration inputs that determine the byte-exact
/// result. Deliberately excludes num_threads (see file comment).
std::uint64_t dse_state_hash(const TaskGraph& graph, const MpsocArchitecture& arch,
                             double deadline_seconds, const DseParams& params,
                             const SerModel& ser, ExposurePolicy policy,
                             std::string_view strategy_name);

/// Appends one journal record per decided slot. record() is cheap
/// (string encode) so the explorer can call it under its bookkeeping
/// mutex; maybe_flush()/flush() do the file I/O and are called outside
/// it. Thread-safe.
class DseCheckpointer final : public Checkpointer {
public:
    /// The cadence (set_cadence) counts decided slots.
    DseCheckpointer(std::string path, std::uint64_t state_hash);

    /// Load the journal at path(), so later flushes append after its
    /// decided prefix, and expose the decoded records via
    /// resume_state(). Calling load() is how the owner opts into
    /// resuming: explore() only consumes state that was loaded
    /// beforehand, so skipping load() means a fresh start.
    /// `task_count` and `core_count` shape the decoded mappings (and
    /// are validated against every record). Returns nullopt when no
    /// journal exists; throws Error(checkpoint_corrupt/_mismatch) as
    /// util/checkpoint.h documents.
    std::optional<DseResumeInfo> load(std::size_t task_count, std::size_t core_count);

    /// The decoded prefix from a successful load(); nullptr otherwise.
    const DseResumeState* resume_state() const { return resume_ ? &*resume_ : nullptr; }

    /// Append one decided slot (strict pop-order prefix).
    void record(const DseSlotRecord& record);

private:
    std::optional<DseResumeState> resume_;
};

} // namespace seamap
