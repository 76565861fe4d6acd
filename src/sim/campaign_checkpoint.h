// Crash-safe checkpoint/resume for sharded fault-injection campaigns
// (sim/campaign.h), built on the generic snapshot layer
// (util/checkpoint.h).
//
// Why resume is trivially exact here: trial t always draws from the
// order-invariant stream Rng(seed).fork_at(t), and every merged
// accumulator is an exact integer moment (util/stats.h ExactMoments),
// so shard merges are associative AND commutative. The checkpoint
// stores one merged partial (total + per-site moments, per-core and
// per-task hit counts) plus the completed-shard bitmap; a resumed run
// computes only the missing shards and folds them in, reproducing the
// uninterrupted report byte-for-byte at any thread count and any
// completion order.
//
// Snapshots are keyed by campaign_state_hash() — a content hash of the
// design (graph, mapping, architecture, scaling, schedule), the SER
// model and the campaign shape (trials, shard size, seed, policy,
// weights). num_threads is excluded: results never depend on it.
// shard_size IS included — the bitmap is indexed by shard, so a
// snapshot is only resumable at the shard size that wrote it.
#pragma once

#include "arch/mpsoc.h"
#include "arch/scaling_enumerator.h"
#include "reliability/ser_model.h"
#include "sched/list_scheduler.h"
#include "sched/mapping.h"
#include "sim/campaign.h"
#include "taskgraph/task_graph.h"
#include "util/cancellation.h"
#include "util/checkpoint.h"

#include <cstdint>
#include <functional>
#include <mutex>
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

/// What load() found in an existing snapshot.
struct CampaignResumeInfo {
    std::uint64_t shards_completed = 0;
    std::uint64_t shard_count = 0;
    bool from_fallback = false;
};

/// Accumulates completed shards into one exact merged partial and
/// persists it as crash-safe snapshots. The campaign engine records
/// every finished shard here (thread-safe); flushing happens on the
/// configured cadence and on demand.
class CampaignCheckpointer {
public:
    CampaignCheckpointer(std::string path, std::uint64_t state_hash);

    /// Flush cadence: persist after every `every_shards` newly recorded
    /// shards (0 = never by count) and whenever `interval_seconds`
    /// elapsed since the last flush (0 = never by time).
    void set_cadence(std::uint64_t every_shards, double interval_seconds);

    /// Load the snapshot at path() into this accumulator. Returns
    /// nullopt when no snapshot exists; throws
    /// Error(checkpoint_corrupt/_mismatch) as documented on
    /// load_checkpoint().
    std::optional<CampaignResumeInfo> load();

    /// Shape the accumulators for this run; verifies any loaded state
    /// against the expected shapes (Error(checkpoint_corrupt) on
    /// disagreement — a hash-matched snapshot cannot legitimately
    /// differ). Returns the restored partial the run resumes from (an
    /// empty tally of the run's shape when nothing was loaded). Must
    /// run before record_shard()/done_snapshot().
    CampaignTally initialize(std::uint64_t shard_count, std::size_t core_count,
                             std::size_t task_count);

    /// Copy of the completed-shard bitmap (1 = already merged); taken
    /// once before dispatch so workers consult an immutable snapshot.
    std::vector<std::uint8_t> done_snapshot() const;

    /// Fold one finished shard into the partial (exact merges) and mark
    /// it done. Thread-safe; ignores shards already recorded.
    void record_shard(std::uint64_t shard, const CampaignTally& tally);

    /// Persist when the cadence is due and new shards were recorded.
    void maybe_flush();
    /// Persist now when new shards were recorded since the last flush.
    void flush();

    /// Delete the snapshot files.
    void remove();

    const std::string& path() const { return path_; }

    /// Test hook: invoked after each record_shard (outside the internal
    /// lock) with the new completed count — lets tests stop a campaign
    /// at a deterministic point. Not used in production.
    std::function<void(std::uint64_t)> on_shard_recorded;

private:
    void flush_locked();

    std::string path_;
    std::uint64_t state_hash_;
    mutable std::mutex mutex_;
    bool shaped_ = false;
    std::uint64_t shard_count_ = 0;
    std::vector<std::uint8_t> done_;
    CampaignTally partial_;
    std::uint64_t flushed_completed_ = 0;
    std::uint64_t every_shards_ = 0;
    IntervalTimer timer_{0.0};
};

} // namespace seamap
