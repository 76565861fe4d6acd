// Sharded fault-injection campaign engine — the measurement-side
// counterpart of the analytic Γ model (eq. 3) at statistically
// meaningful trial counts. Trials are cut into fixed-size blocks
// (shards) run by parallel_for_index (util/parallel.h); trial t always
// draws from the order-invariant stream Rng(seed).fork_at(t), which a
// shard seeds four trials at a time (Rng::fork_block). Each fully
// run shard folds into the run's one tally, whose every accumulator is
// an exact integer moment (util/stats.h ExactMoments), so the report is
// byte-identical for ANY thread count, ANY shard size and ANY
// completion order. A checkpoint (sim/campaign_checkpoint.h) only
// journals the shards; the engine owns the tally and the done flags.
//
// Faults are injected at differentiated sites, following the
// component-level triage of CFA-style frameworks (register file vs
// pipeline vs memory residency):
//
//  - register_file: the exposure profile of sim/exposure.h (live
//    register bits under the configured policy) — weight 1 reproduces
//    the analytic Γ of eq. (3) exactly in expectation, which is the
//    campaign's validation surface against SeuEstimator;
//  - pipeline: per-task latch exposure — `pipeline_bits` of pipeline
//    state are vulnerable on a core exactly while it executes a task,
//    attributed to that task;
//  - memory: residency exposure — a task's register image is resident
//    in memory for the whole run [0, T_M], attributed to the task.
//
// Each site scales the physical SER by its own weight on top of
// SerModel; hits are attributed per task, per core and per component,
// and every site reports mean / stdev / 95% CI over the per-trial hit
// counts.
#pragma once

#include "arch/mpsoc.h"
#include "arch/scaling_enumerator.h"
#include "reliability/ser_model.h"
#include "sched/list_scheduler.h"
#include "sched/mapping.h"
#include "sim/exposure.h"
#include "taskgraph/task_graph.h"
#include "util/stats.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

namespace seamap {

class CancellationToken;    // util/cancellation.h
class CampaignCheckpointer; // sim/campaign_checkpoint.h

/// Differentiated fault-site components.
enum class FaultSite : std::uint8_t {
    register_file = 0,
    pipeline = 1,
    memory = 2,
};

inline constexpr std::size_t k_fault_site_count = 3;

/// Stable lower-case name ("register_file", "pipeline", "memory").
std::string_view fault_site_name(FaultSite site);

/// Per-site multiplier on the physical SER rate. register_file at 1.0
/// makes that site's expectation exactly the analytic Γ of eq. (3);
/// the pipeline/memory defaults reflect the smaller latch cross
/// section and the stronger protection (ECC) of memory arrays.
struct FaultSiteWeights {
    double register_file = 1.0;
    double pipeline = 0.25;
    double memory = 0.05;

    /// Register file at 1.0, pipeline and memory off: each trial then
    /// draws exactly FaultInjector::inject_profile's total on the same
    /// stream, and the report is the plain eq. (3) fault-injection
    /// campaign (`seamap_cli inject`).
    static FaultSiteWeights register_file_only() { return {1.0, 0.0, 0.0}; }
};

/// Campaign shape: trial count, shard granularity, parallelism, seed
/// and the fault-site model. Results never depend on num_threads or
/// shard_size (only throughput does).
struct CampaignConfig {
    std::uint64_t trials = 10'000;
    /// Trials per dispatched shard (block). Must be >= 1.
    std::uint64_t shard_size = 1024;
    /// Threads parallel_for_index runs the shards on; 0 means one per
    /// hardware thread (resolve_thread_count, util/parallel.h).
    std::size_t num_threads = 1;
    std::uint64_t seed = 1;
    SimExposurePolicy policy = SimExposurePolicy::full_duration;
    FaultSiteWeights weights;
    /// Pipeline latch bits vulnerable on a core while it executes.
    double pipeline_bits = 512.0;
};

/// Sentinel task id for fault sources not attributable to one task
/// (union register residency).
inline constexpr TaskId k_no_task = std::numeric_limits<TaskId>::max();

/// One Poisson fault source: a component's bits on one core, exposed
/// for a fixed duration, with the campaign-invariant Poisson mean
/// precomputed once (bits x seconds x site-weighted SER rate).
struct FaultSource {
    FaultSite site = FaultSite::register_file;
    CoreId core = 0;
    TaskId task = k_no_task;
    double mean_seus = 0.0;
};

/// Exact hit tally over a set of completed shards: per-trial total and
/// per-site moments plus per-core and per-task hit counts. One type
/// serves a single shard's accumulator, a checkpoint's restored shards
/// and the run's total; every field is an exact integer, so
/// merge() is associative and commutative and any fold order gives the
/// same bytes.
struct CampaignTally {
    /// A tally of no shards, shaped for `core_count` x `task_count`.
    static CampaignTally zero(std::size_t core_count, std::size_t task_count);

    /// Shards folded in (0 for a shard still running or cut short).
    std::uint64_t shards = 0;
    ExactMoments total;
    std::array<ExactMoments, k_fault_site_count> per_site;
    std::vector<std::uint64_t> hits_per_core;
    std::vector<std::uint64_t> hits_per_task;

    /// Fold `other` in; both tallies must share one core/task shape.
    void merge(const CampaignTally& other);
};

/// Per-site results: the analytic expectation and the exact-moment
/// statistics (mean / stdev / 95% CI) over per-trial hit counts.
struct SiteReport {
    double analytic_gamma = 0.0;
    ExactMoments stats;
};

/// Merged campaign result. All counters are exact integers folded
/// deterministically across shards; byte-identical for any thread
/// count and shard schedule.
struct CampaignReport {
    std::uint64_t trials = 0;
    std::uint64_t shard_size = 0;
    std::uint64_t shards = 0;
    /// Shards actually merged into the statistics (restored plus run).
    /// Equals `shards` on a full run; smaller when cancellation stopped
    /// the campaign early, and then the statistics cover only those
    /// shards (a checkpoint journal resumes the rest).
    std::uint64_t shards_completed = 0;
    std::uint64_t seed = 0;
    /// Weighted expectation summed over every site.
    double analytic_gamma = 0.0;
    /// Per-trial totals over all sites.
    ExactMoments total_stats;
    /// Indexed by FaultSite.
    std::array<SiteReport, k_fault_site_count> sites;
    /// Hit attribution summed over all trials and sites.
    std::vector<std::uint64_t> hits_per_core;
    /// Task-attributable hits (pipeline + memory sites); union register
    /// residency has no single owning task and lands only in per-core.
    std::vector<std::uint64_t> hits_per_task;

    const SiteReport& site(FaultSite s) const {
        return sites[static_cast<std::size_t>(s)];
    }
};

/// The campaign engine: bind an SER model and a configuration, then
/// run scheduled designs through it.
class CampaignEngine {
public:
    CampaignEngine(SerModel ser, CampaignConfig config);

    const SerModel& ser_model() const { return ser_; }

    /// The campaign-invariant fault-source table for one scheduled
    /// design: every (site, core, task) exposure with its precomputed
    /// Poisson mean, in the fixed enumeration order trials draw in
    /// (register-file profile order, then pipeline by task id, then
    /// memory by task id). Exposed for tests and attribution tooling.
    std::vector<FaultSource> build_sources(const TaskGraph& graph, const Mapping& mapping,
                                           const MpsocArchitecture& arch,
                                           const ScalingVector& levels,
                                           const Schedule& schedule) const;

    /// Run the sharded campaign over a scheduled design. `cancel`, when
    /// non-null, stops the campaign between shards (completed shards
    /// keep counting); `checkpoint`, when non-null, supplies
    /// already-completed shards (load it beforehand), receives every
    /// shard finished here and flushes on its cadence — because all
    /// merges are exact integer moments, the final report is
    /// byte-identical to the uninterrupted run whatever subset of
    /// shards was restored. Restored shards that do not fit this run
    /// (an index past its shard count, hit vectors of another core or
    /// task count) raise Error(checkpoint_corrupt).
    CampaignReport run(const TaskGraph& graph, const Mapping& mapping,
                       const MpsocArchitecture& arch, const ScalingVector& levels,
                       const Schedule& schedule, const CancellationToken* cancel = nullptr,
                       CampaignCheckpointer* checkpoint = nullptr) const;

private:
    SerModel ser_;
    CampaignConfig config_;
};

} // namespace seamap
