#include "sim/campaign_checkpoint.h"

#include "reliability/state_hash.h"
#include "util/error.h"
#include "util/strings.h"

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

[[noreturn]] void fail_decode(const std::string& path, const std::string& why) {
    throw Error(ErrorCategory::checkpoint_corrupt,
                "corrupt campaign checkpoint record: " + why, path);
}

std::uint64_t field_u64(const std::string& path, const std::vector<std::string>& fields,
                        std::size_t at) {
    try {
        return parse_u64(fields.at(at));
    } catch (const std::exception&) {
        fail_decode(path, "non-numeric field");
    }
}

ExactMomentsState decode_moments(const std::string& path,
                                 const std::vector<std::string>& fields, std::size_t at) {
    ExactMomentsState s;
    s.count = field_u64(path, fields, at);
    s.min = field_u64(path, fields, at + 1);
    s.max = field_u64(path, fields, at + 2);
    s.sum_hi = field_u64(path, fields, at + 3);
    s.sum_lo = field_u64(path, fields, at + 4);
    s.sum_sq_hi = field_u64(path, fields, at + 5);
    s.sum_sq_lo = field_u64(path, fields, at + 6);
    return s;
}

std::string csv_of_u64s(const std::vector<std::uint64_t>& xs) {
    std::string out;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(xs[i]);
    }
    return out;
}

std::vector<std::uint64_t> u64s_of_csv(const std::string& path, const std::string& csv) {
    std::vector<std::uint64_t> out;
    if (csv.empty()) return out;
    for (const std::string& field : split(csv, ',')) {
        try {
            out.push_back(parse_u64(field));
        } catch (const std::exception&) {
            fail_decode(path, "non-numeric counter '" + field + "'");
        }
    }
    return out;
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
    // invariant to it); shard_size is present (the bitmap is indexed by
    // shard, so snapshots are bound to the shard size that wrote them).
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
    std::vector<std::uint64_t> restored;
    CampaignTally partial;
    for (const std::string& line : *lines) {
        const std::vector<std::string> fields = split(line, ' ');
        if (fields.size() != k_record_fields || fields[0] != "shard")
            fail_decode(path(), "bad shard record");
        restored.push_back(field_u64(path(), fields, 1));
        CampaignTally tally;
        tally.shards = 1;
        tally.total = ExactMoments::from_state(decode_moments(path(), fields, 2));
        for (std::size_t s = 0; s < k_fault_site_count; ++s)
            tally.per_site[s] = ExactMoments::from_state(
                decode_moments(path(), fields, 2 + k_moment_fields * (1 + s)));
        tally.hits_per_core = u64s_of_csv(path(), fields[k_record_fields - 2]);
        tally.hits_per_task = u64s_of_csv(path(), fields[k_record_fields - 1]);
        if (restored.size() == 1)
            partial = CampaignTally::zero(tally.hits_per_core.size(),
                                          tally.hits_per_task.size());
        else if (tally.hits_per_core.size() != partial.hits_per_core.size() ||
                 tally.hits_per_task.size() != partial.hits_per_task.size())
            fail_decode(path(), "shard records disagree on the core or task count");
        partial.merge(tally);
    }
    std::sort(restored.begin(), restored.end());
    if (std::adjacent_find(restored.begin(), restored.end()) != restored.end())
        fail_decode(path(), "duplicated shard record");

    std::lock_guard lock(mutex_);
    shaped_ = false;
    restored_ = std::move(restored);
    partial_ = std::move(partial);
    return CampaignResumeInfo{restored_.size()};
}

CampaignTally CampaignCheckpointer::initialize(std::uint64_t shard_count,
                                               std::size_t core_count,
                                               std::size_t task_count) {
    std::lock_guard lock(mutex_);
    if (!shaped_) {
        if (!restored_.empty() && restored_.back() >= shard_count)
            fail_decode(path(), "shard " + std::to_string(restored_.back()) +
                                    " is beyond this run's " + std::to_string(shard_count) +
                                    " shards");
        if (partial_.shards == 0) partial_ = CampaignTally::zero(core_count, task_count);
        done_.assign(shard_count, 0);
        for (const std::uint64_t shard : restored_) done_[shard] = 1;
        shaped_ = true;
    }
    if (done_.size() != shard_count || partial_.hits_per_core.size() != core_count ||
        partial_.hits_per_task.size() != task_count)
        fail_decode(path(), "shard records disagree with this run's core or task count");
    return partial_;
}

std::vector<std::uint8_t> CampaignCheckpointer::done_snapshot() const {
    std::lock_guard lock(mutex_);
    return done_;
}

void CampaignCheckpointer::record_shard(std::uint64_t shard, const CampaignTally& tally) {
    std::string line = "shard " + std::to_string(shard);
    encode_moments(line, tally.total.state());
    for (const ExactMoments& site : tally.per_site) encode_moments(line, site.state());
    line += ' ' + csv_of_u64s(tally.hits_per_core) + ' ' + csv_of_u64s(tally.hits_per_task);
    std::uint64_t now_completed = 0;
    {
        std::lock_guard lock(mutex_);
        if (shard >= done_.size() || done_[shard] != 0) return;
        done_[shard] = 1;
        partial_.merge(tally);
        append_locked(std::move(line));
        now_completed = partial_.shards;
    }
    if (on_shard_recorded) on_shard_recorded(now_completed);
}

} // namespace seamap
