#include "sim/campaign_checkpoint.h"

#include "reliability/state_hash.h"
#include "util/error.h"

#include <algorithm>
#include <utility>

namespace seamap {

namespace {

// --- record encoding ------------------------------------------------
// One record per finished shard, space-separated fields:
//   shard <index> <total> <site 0> ... <site k-1> <cores csv> <tasks csv>
// where each moments field group is an ExactMomentsState's 7 decimal
// u64s. Every field is an integer, so the round-trip is exact by
// construction — no float rendering is involved anywhere.
constexpr std::size_t k_moment_fields = 7;
constexpr std::size_t k_record_fields = 4 + k_moment_fields * (1 + k_fault_site_count);

void encode_moments(std::string& out, const ExactMomentsState& s) {
    out += ' ' + std::to_string(s.count);
    out += ' ' + std::to_string(s.min);
    out += ' ' + std::to_string(s.max);
    out += ' ' + std::to_string(s.sum_hi);
    out += ' ' + std::to_string(s.sum_lo);
    out += ' ' + std::to_string(s.sum_sq_hi);
    out += ' ' + std::to_string(s.sum_sq_lo);
}

ExactMoments decode_moments(const RecordFields& fields, std::size_t at) {
    ExactMomentsState s;
    s.count = fields.u64(at);
    s.min = fields.u64(at + 1);
    s.max = fields.u64(at + 2);
    s.sum_hi = fields.u64(at + 3);
    s.sum_lo = fields.u64(at + 4);
    s.sum_sq_hi = fields.u64(at + 5);
    s.sum_sq_lo = fields.u64(at + 6);
    return ExactMoments::from_state(s);
}

} // namespace

std::uint64_t campaign_state_hash(const TaskGraph& graph, const Mapping& mapping,
                                  const MpsocArchitecture& arch, const ScalingVector& levels,
                                  const Schedule& schedule, const SerModel& ser,
                                  const CampaignConfig& config) {
    HashStream h;
    h.mix("seamap-campaign-state");

    mix_graph_and_architecture(h, graph, arch);

    // The design under test: mapping, scaling and its exact schedule
    // (the schedule determines every exposure window, so two runs with
    // the same mapping but different schedules must not share a
    // snapshot).
    h.mix(mapping.raw().size());
    for (CoreId core : mapping.raw()) h.mix(core);
    h.mix(levels.size());
    for (ScalingLevel level : levels) h.mix(level);
    h.mix(schedule.entries.size());
    for (const ScheduledTask& entry : schedule.entries) {
        h.mix(entry.task);
        h.mix(entry.core);
        h.mix_double(entry.start_seconds);
        h.mix_double(entry.finish_seconds);
    }
    h.mix_double(schedule.total_time_seconds);

    mix_ser_model(h, ser);

    // Campaign shape. num_threads is deliberately absent (results are
    // invariant to it); shard_size is present (records are indexed by
    // shard, so journals are bound to the shard size that wrote them).
    h.mix(config.trials);
    h.mix(config.shard_size);
    h.mix(config.seed);
    h.mix(static_cast<std::uint64_t>(config.policy));
    h.mix_double(config.weights.register_file);
    h.mix_double(config.weights.pipeline);
    h.mix_double(config.weights.memory);
    h.mix_double(config.pipeline_bits);
    return h.value();
}

CampaignCheckpointer::CampaignCheckpointer(std::string path, std::uint64_t state_hash)
    : Checkpointer(std::move(path), "campaign", state_hash) {}

std::optional<CampaignResumeInfo> CampaignCheckpointer::load() {
    const std::optional<std::vector<std::string>> lines = load_records();
    if (!lines) return std::nullopt;
    CampaignResumeState state;
    for (const std::string& line : *lines) {
        const RecordFields fields(path(), line);
        if (fields.size() != k_record_fields || fields[0] != "shard")
            fields.fail("bad shard record");
        state.shards.push_back(fields.u64(1));
        CampaignTally tally;
        tally.shards = 1;
        tally.total = decode_moments(fields, 2);
        for (std::size_t s = 0; s < k_fault_site_count; ++s)
            tally.per_site[s] = decode_moments(fields, 2 + k_moment_fields * (1 + s));
        tally.hits_per_core = fields.u64s(k_record_fields - 2);
        tally.hits_per_task = fields.u64s(k_record_fields - 1);
        if (state.shards.size() == 1)
            state.tally = CampaignTally::zero(tally.hits_per_core.size(),
                                              tally.hits_per_task.size());
        else if (tally.hits_per_core.size() != state.tally.hits_per_core.size() ||
                 tally.hits_per_task.size() != state.tally.hits_per_task.size())
            fields.fail("shard records disagree on the core or task count");
        state.tally.merge(tally);
    }
    std::sort(state.shards.begin(), state.shards.end());
    if (std::adjacent_find(state.shards.begin(), state.shards.end()) != state.shards.end())
        throw Error(ErrorCategory::checkpoint_corrupt,
                    "corrupt checkpoint record: duplicated shard record", path());
    resume_ = std::move(state);
    return CampaignResumeInfo{resume_->shards.size()};
}

void CampaignCheckpointer::record_shard(std::uint64_t shard, const CampaignTally& tally) {
    std::string line = "shard " + std::to_string(shard);
    encode_moments(line, tally.total.state());
    for (const ExactMoments& site : tally.per_site) encode_moments(line, site.state());
    line += ' ' + csv_of(tally.hits_per_core) + ' ' + csv_of(tally.hits_per_task);
    const std::uint64_t recorded = append(std::move(line));
    if (on_shard_recorded) on_shard_recorded(recorded);
}

} // namespace seamap
