// Crash-safe checkpoint/resume for sharded fault-injection campaigns
// (sim/campaign.h), built on the checkpoint journal (util/checkpoint.h).
//
// Why resume is trivially exact here: trial t always draws from the
// order-invariant stream Rng(seed).fork_at(t), and every merged
// accumulator is an exact integer moment (util/stats.h ExactMoments),
// so shard merges are associative AND commutative. The journal holds
// one record per finished shard (its index, total and per-site
// moments, per-core and per-task hit counts). The checkpointer only
// encodes, decodes and appends those records: load() decodes them into
// a resume state (the restored shard indices and their merged tally),
// and the campaign engine, which owns the run's one tally, starts from
// it, computes only the missing shards and folds those in, reproducing
// the uninterrupted report byte-for-byte at any thread count and any
// completion order.
//
// Journals are keyed by campaign_state_hash() — a content hash of the
// design (graph, mapping, architecture, scaling, schedule), the SER
// model and the campaign shape (trials, shard size, seed, policy,
// weights). num_threads is excluded: results never depend on it.
// shard_size IS included — records are indexed by shard, so a
// journal is only resumable at the shard size that wrote it.
#pragma once

#include "arch/mpsoc.h"
#include "arch/scaling_enumerator.h"
#include "reliability/ser_model.h"
#include "sched/list_scheduler.h"
#include "sched/mapping.h"
#include "sim/campaign.h"
#include "taskgraph/task_graph.h"
#include "util/checkpoint.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace seamap {

/// Content hash of the campaign inputs that determine the byte-exact
/// report (see file comment for what is deliberately excluded).
std::uint64_t campaign_state_hash(const TaskGraph& graph, const Mapping& mapping,
                                  const MpsocArchitecture& arch, const ScalingVector& levels,
                                  const Schedule& schedule, const SerModel& ser,
                                  const CampaignConfig& config);

/// Decoded resume state: the restored shards and their exact merge.
/// The engine checks both against its run's shape.
struct CampaignResumeState {
    std::vector<std::uint64_t> shards; ///< restored shard indices, ascending, distinct
    CampaignTally tally;               ///< their merge (empty without shards)
};

/// What load() found in an existing journal.
struct CampaignResumeInfo {
    std::uint64_t shards_completed = 0;
};

/// Appends one journal record per finished shard. The campaign engine
/// records every finished shard here (thread-safe); flushing happens on
/// the configured cadence and on demand.
class CampaignCheckpointer final : public Checkpointer {
public:
    /// The cadence (set_cadence) counts recorded shards.
    CampaignCheckpointer(std::string path, std::uint64_t state_hash);

    /// Load the journal at path(), so later flushes append after its
    /// records, and expose the decoded shards via resume_state().
    /// Returns nullopt when no journal exists; throws
    /// Error(checkpoint_corrupt/_mismatch) as util/checkpoint.h
    /// documents, and Error(checkpoint_corrupt) on a malformed or
    /// duplicated shard record.
    std::optional<CampaignResumeInfo> load();

    /// The decoded shards from a successful load(); nullptr otherwise.
    const CampaignResumeState* resume_state() const { return resume_ ? &*resume_ : nullptr; }

    /// Append the record of one fully run shard. Thread-safe.
    void record_shard(std::uint64_t shard, const CampaignTally& tally);

    /// Test hook: invoked after each record_shard with the journal's
    /// shard count (restored plus recorded) — lets tests stop a
    /// campaign at a deterministic point. Not used in production.
    std::function<void(std::uint64_t)> on_shard_recorded;

private:
    std::optional<CampaignResumeState> resume_;
};

} // namespace seamap
