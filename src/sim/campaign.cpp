#include "sim/campaign.h"

#include "sim/campaign_checkpoint.h"
#include "util/cancellation.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>

namespace seamap {

std::string_view fault_site_name(FaultSite site) {
    switch (site) {
    case FaultSite::register_file: return "register_file";
    case FaultSite::pipeline: return "pipeline";
    case FaultSite::memory: return "memory";
    }
    throw std::invalid_argument("fault_site_name: unknown site");
}

namespace {

// Neither the shard count nor a shard's end (run()) may wrap near
// 2^64, whatever trials and shard_size are.
std::uint64_t shard_count_of(const CampaignConfig& config) {
    return config.trials / config.shard_size + (config.trials % config.shard_size != 0);
}

void validate_config(const CampaignConfig& config) {
    if (config.trials == 0)
        throw std::invalid_argument("CampaignEngine: campaign needs >= 1 trial");
    if (config.shard_size == 0)
        throw std::invalid_argument("CampaignEngine: shard_size must be >= 1");
    // A resumed run() keeps one done flag per shard: refuse tables over
    // 1 GiB up front.
    if (const std::uint64_t shards = shard_count_of(config);
        shards > (std::uint64_t{1} << 30) / sizeof(std::uint8_t))
        throw Error(ErrorCategory::invalid_argument,
                    "CampaignEngine: " + std::to_string(shards) + " shards of " +
                        std::to_string(config.shard_size) +
                        " trials need over 1 GiB of shard tables; raise the shard size");
    auto finite_non_negative = [](double x) { return std::isfinite(x) && x >= 0.0; };
    if (!finite_non_negative(config.weights.register_file) ||
        !finite_non_negative(config.weights.pipeline) ||
        !finite_non_negative(config.weights.memory))
        throw std::invalid_argument("CampaignEngine: site weights must be finite and >= 0");
    if (!finite_non_negative(config.pipeline_bits))
        throw std::invalid_argument("CampaignEngine: pipeline_bits must be finite and >= 0");
}

} // namespace

CampaignTally CampaignTally::zero(std::size_t core_count, std::size_t task_count) {
    CampaignTally tally;
    tally.hits_per_core.assign(core_count, 0);
    tally.hits_per_task.assign(task_count, 0);
    return tally;
}

void CampaignTally::merge(const CampaignTally& other) {
    shards += other.shards;
    total.merge(other.total);
    for (std::size_t s = 0; s < k_fault_site_count; ++s) per_site[s].merge(other.per_site[s]);
    for (std::size_t c = 0; c < hits_per_core.size(); ++c)
        hits_per_core[c] += other.hits_per_core[c];
    for (std::size_t t = 0; t < hits_per_task.size(); ++t)
        hits_per_task[t] += other.hits_per_task[t];
}

CampaignEngine::CampaignEngine(SerModel ser, CampaignConfig config)
    : ser_(std::move(ser)), config_(config) {
    validate_config(config_);
}

std::vector<FaultSource> CampaignEngine::build_sources(const TaskGraph& graph,
                                                       const Mapping& mapping,
                                                       const MpsocArchitecture& arch,
                                                       const ScalingVector& levels,
                                                       const Schedule& schedule) const {
    arch.validate_scaling(levels);
    const RegisterFile& regs = graph.register_file();
    // Per-core physical rates, hoisted once per campaign.
    std::vector<double> rate(arch.core_count(), 0.0);
    for (std::size_t c = 0; c < rate.size(); ++c)
        rate[c] = ser_.ser_per_bit_second(arch.scaling_table().vdd(levels[c]));

    std::vector<FaultSource> sources;

    // Site 1: register file — the eq. (3) exposure profile under the
    // configured policy. Union residency has no single owning task.
    const auto profile =
        build_exposure_profile(graph, mapping, arch, schedule, config_.policy);
    for (const auto& interval : profile) {
        FaultSource source;
        source.site = FaultSite::register_file;
        source.core = interval.core;
        source.task = k_no_task;
        source.mean_seus = static_cast<double>(interval.live.bits_in(regs)) *
                           interval.duration_seconds * rate[interval.core] *
                           config_.weights.register_file;
        sources.push_back(source);
    }

    // Site 2: pipeline — latch bits live on a core exactly while it
    // executes a task, summed over all batch iterations.
    const double batches = static_cast<double>(graph.batch_count());
    for (TaskId t = 0; t < graph.task_count(); ++t) {
        const CoreId core = mapping.core_of(t);
        const double busy = (schedule.entries[t].finish_seconds -
                             schedule.entries[t].start_seconds) *
                            batches;
        FaultSource source;
        source.site = FaultSite::pipeline;
        source.core = core;
        source.task = t;
        source.mean_seus =
            config_.pipeline_bits * busy * rate[core] * config_.weights.pipeline;
        sources.push_back(source);
    }

    // Site 3: memory residency — the task's register image stays
    // resident for the whole run [0, T_M] on its core's memory.
    for (TaskId t = 0; t < graph.task_count(); ++t) {
        const CoreId core = mapping.core_of(t);
        FaultSource source;
        source.site = FaultSite::memory;
        source.core = core;
        source.task = t;
        source.mean_seus = static_cast<double>(graph.task(t).registers.bits_in(regs)) *
                           schedule.total_time_seconds * rate[core] *
                           config_.weights.memory;
        sources.push_back(source);
    }
    return sources;
}

CampaignReport CampaignEngine::run(const TaskGraph& graph, const Mapping& mapping,
                                   const MpsocArchitecture& arch,
                                   const ScalingVector& levels, const Schedule& schedule,
                                   const CancellationToken* cancel,
                                   CampaignCheckpointer* checkpoint) const {
    const std::vector<FaultSource> sources =
        build_sources(graph, mapping, arch, levels, schedule);
    // One sampler per source, so a trial pays only for its draws, over
    // one read-only log-factorial table shared by every shard.
    std::vector<PoissonSampler> samplers;
    for (const FaultSource& source : sources) samplers.emplace_back(source.mean_seus);
    const std::vector<double> log_factorials = PoissonSampler::share_log_factorials(samplers);
    const std::uint64_t trials = config_.trials;
    const std::uint64_t shard_size = config_.shard_size;
    const std::uint64_t shard_count = shard_count_of(config_);
    const std::size_t cores = arch.core_count();
    const std::size_t tasks = graph.task_count();

    // The run's one tally starts from the shards a checkpoint restored;
    // workers skip those, reading flags that are fixed before dispatch.
    // Every fully run shard folds in under tally_mutex: merges are exact
    // and commutative, so completion order cannot move a byte.
    CampaignTally tally = CampaignTally::zero(cores, tasks);
    std::mutex tally_mutex;
    std::vector<std::uint8_t> restored;
    if (const CampaignResumeState* resume =
            checkpoint != nullptr ? checkpoint->resume_state() : nullptr;
        resume != nullptr && !resume->shards.empty()) {
        // A hash-matched journal cannot legitimately disagree with the run.
        auto corrupt = [&](const std::string& why) {
            return Error(ErrorCategory::checkpoint_corrupt, "corrupt checkpoint record: " + why,
                         checkpoint->path());
        };
        if (resume->shards.back() >= shard_count)
            throw corrupt("shard " + std::to_string(resume->shards.back()) +
                          " is beyond this run's " + std::to_string(shard_count) + " shards");
        if (resume->tally.hits_per_core.size() != cores ||
            resume->tally.hits_per_task.size() != tasks)
            throw corrupt("shard records disagree with this run's core or task count");
        tally = resume->tally;
        restored.assign(shard_count, 0);
        for (const std::uint64_t shard : resume->shards) restored[shard] = 1;
    }

    const std::uint64_t seed = config_.seed;
    parallel_for_index(
        static_cast<std::size_t>(shard_count), config_.num_threads,
        [&](std::size_t shard) {
            if (!restored.empty() && restored[shard] != 0) return;
            CampaignTally acc = CampaignTally::zero(cores, tasks);
            const Rng root(seed);
            const std::uint64_t lo = static_cast<std::uint64_t>(shard) * shard_size;
            const std::uint64_t hi = lo + std::min(shard_size, trials - lo);
            std::array<Rng, 4> streams{root, root, root, root}; // fork_block reseeds them
            std::array<std::uint64_t, k_fault_site_count> trial_site{};
            for (std::uint64_t trial = lo; trial < hi; ++trial) {
                // A stop request abandons the shard un-recorded: a
                // partially-run shard must never enter the tally.
                if (cancel != nullptr && cancel->stop_requested()) return;
                // The stream is fork_at(trial), a pure function of (seed,
                // trial): any shard schedule replays identical draws per
                // trial. Streams are seeded four trials at a time.
                const std::size_t lane = (trial - lo) % streams.size();
                if (lane == 0) {
                    const auto count = static_cast<std::size_t>(
                        std::min<std::uint64_t>(streams.size(), hi - trial));
                    root.fork_block(trial, std::span(streams).first(count));
                }
                Rng& stream = streams[lane];
                trial_site.fill(0);
                std::uint64_t trial_total = 0;
                for (std::size_t i = 0; i < sources.size(); ++i) {
                    const std::uint64_t hits = samplers[i](stream);
                    if (hits == 0) continue;
                    const FaultSource& source = sources[i];
                    trial_site[static_cast<std::size_t>(source.site)] += hits;
                    trial_total += hits;
                    acc.hits_per_core[source.core] += hits;
                    if (source.task != k_no_task) acc.hits_per_task[source.task] += hits;
                }
                for (std::size_t s = 0; s < k_fault_site_count; ++s)
                    acc.per_site[s].add(trial_site[s]);
                acc.total.add(trial_total);
            }
            acc.shards = 1;
            {
                const std::lock_guard lock(tally_mutex);
                tally.merge(acc);
            }
            if (checkpoint != nullptr) {
                checkpoint->record_shard(shard, acc);
                checkpoint->maybe_flush();
            }
        });
    if (checkpoint != nullptr) checkpoint->flush();

    CampaignReport report;
    report.trials = trials;
    report.shard_size = shard_size;
    report.shards = shard_count;
    report.shards_completed = tally.shards;
    report.seed = seed;
    for (const FaultSource& source : sources) {
        report.analytic_gamma += source.mean_seus;
        report.sites[static_cast<std::size_t>(source.site)].analytic_gamma +=
            source.mean_seus;
    }
    report.total_stats = tally.total;
    for (std::size_t s = 0; s < k_fault_site_count; ++s)
        report.sites[s].stats = tally.per_site[s];
    report.hits_per_core = std::move(tally.hits_per_core);
    report.hits_per_task = std::move(tally.hits_per_task);
    return report;
}

} // namespace seamap
