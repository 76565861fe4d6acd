// Crash-safe checkpoint/resume for sharded fault-injection campaigns
// (sim/campaign.h), built on the checkpoint journal (util/checkpoint.h).
//
// Why resume is trivially exact here: trial t always draws from the
// order-invariant stream Rng(seed).fork_at(t), and every merged
// accumulator is an exact integer moment (util/stats.h ExactMoments),
// so shard merges are associative AND commutative. The journal holds
// one record per finished shard (its index, total and per-site
// moments, per-core and per-task hit counts); a resumed run merges
// them, computes only the missing shards and folds those in,
// reproducing the uninterrupted report byte-for-byte at any thread
// count and any completion order.
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

/// What load() found in an existing journal.
struct CampaignResumeInfo {
    std::uint64_t shards_completed = 0;
};

/// Accumulates completed shards into one exact merged partial and
/// appends one journal record per shard. The campaign engine records
/// every finished shard here (thread-safe); flushing happens on the
/// configured cadence and on demand.
class CampaignCheckpointer final : public Checkpointer {
public:
    /// The cadence (set_cadence) counts recorded shards.
    CampaignCheckpointer(std::string path, std::uint64_t state_hash);

    /// Merge the shard records of the journal at path() into this
    /// accumulator. Returns nullopt when no journal exists; throws
    /// Error(checkpoint_corrupt/_mismatch) as util/checkpoint.h
    /// documents, and Error(checkpoint_corrupt) on a malformed or
    /// duplicated shard record.
    std::optional<CampaignResumeInfo> load();

    /// Shape the accumulators for this run; verifies any loaded shards
    /// against the run's shard count and core and task counts
    /// (Error(checkpoint_corrupt) on disagreement — a hash-matched
    /// journal cannot legitimately differ). Returns the restored
    /// partial the run resumes from (an empty tally of the run's shape
    /// when nothing was loaded). Must run before
    /// record_shard()/done_snapshot().
    CampaignTally initialize(std::uint64_t shard_count, std::size_t core_count,
                             std::size_t task_count);

    /// Copy of the completed-shard bitmap (1 = already merged); taken
    /// once before dispatch so workers consult an immutable snapshot.
    std::vector<std::uint8_t> done_snapshot() const;

    /// Fold one finished shard into the partial (exact merges) and mark
    /// it done. Thread-safe; ignores shards already recorded.
    void record_shard(std::uint64_t shard, const CampaignTally& tally);

    /// Test hook: invoked after each record_shard (outside the internal
    /// lock) with the new completed count — lets tests stop a campaign
    /// at a deterministic point. Not used in production.
    std::function<void(std::uint64_t)> on_shard_recorded;

private:
    bool shaped_ = false;
    std::vector<std::uint64_t> restored_; ///< loaded shard indices, ascending
    std::vector<std::uint8_t> done_;
    CampaignTally partial_;
};

} // namespace seamap
