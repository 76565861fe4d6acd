#include "sim/campaign_checkpoint.h"

#include "reliability/state_hash.h"
#include "util/error.h"
#include "util/strings.h"

#include <utility>

namespace seamap {

namespace {

// --- payload encoding -----------------------------------------------
// Fixed payload of 5 + k_fault_site_count lines:
//   shards <count> completed <n>
//   done <hex bitmap>                  # byte j bit k = shard 8j+k
//   total <ExactMomentsState>          # 7 decimal u64 fields
//   site <i> <ExactMomentsState>       # one per fault site
//   cores <csv u64>
//   tasks <csv u64>
constexpr std::size_t k_payload_lines = 5 + k_fault_site_count;
// Every field is an integer, so the round-trip is exact by
// construction — no float rendering is involved anywhere.

std::string hex_of_bitmap(const std::vector<std::uint8_t>& done) {
    static constexpr char digits[] = "0123456789abcdef";
    const std::size_t bytes = (done.size() + 7) / 8;
    std::string out(bytes * 2, '0');
    for (std::size_t i = 0; i < done.size(); ++i) {
        if (done[i] == 0) continue;
        const std::size_t byte = i / 8;
        const unsigned bit = static_cast<unsigned>(i % 8);
        const std::size_t nibble = byte * 2 + (bit < 4 ? 1 : 0);
        const unsigned value =
            static_cast<unsigned>(out[nibble] >= 'a' ? out[nibble] - 'a' + 10
                                                     : out[nibble] - '0');
        out[nibble] = digits[value | (1u << (bit % 4))];
    }
    return out;
}

std::vector<std::uint8_t> bitmap_of_hex(const std::string& path, std::string_view hex,
                                        std::uint64_t shard_count) {
    if (hex.size() != ((shard_count + 7) / 8) * 2)
        throw Error(ErrorCategory::checkpoint_corrupt,
                    "corrupt campaign checkpoint payload: bitmap length mismatch", path);
    std::vector<std::uint8_t> done(shard_count, 0);
    for (std::uint64_t i = 0; i < shard_count; ++i) {
        const std::uint64_t byte = i / 8;
        const unsigned bit = static_cast<unsigned>(i % 8);
        const char c = hex[byte * 2 + (bit < 4 ? 1 : 0)];
        unsigned value = 0;
        if (c >= '0' && c <= '9')
            value = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f')
            value = static_cast<unsigned>(c - 'a' + 10);
        else
            throw Error(ErrorCategory::checkpoint_corrupt,
                        "corrupt campaign checkpoint payload: non-hex bitmap", path);
        if ((value >> (bit % 4)) & 1u) done[i] = 1;
    }
    return done;
}

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
                "corrupt campaign checkpoint payload: " + why, path);
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
    std::optional<CheckpointLoad> loaded = load_snapshot();
    if (!loaded) return std::nullopt;
    const std::vector<std::string>& lines = loaded->data.lines;
    if (lines.size() != k_payload_lines)
        fail_decode(path(), "expected " + std::to_string(k_payload_lines) +
                               " payload lines");

    const std::vector<std::string> head = split(lines[0], ' ');
    if (head.size() != 4 || head[0] != "shards" || head[2] != "completed")
        fail_decode(path(), "bad header line");
    const std::uint64_t shard_count = field_u64(path(), head, 1);
    const std::uint64_t completed = field_u64(path(), head, 3);
    if (completed > shard_count) fail_decode(path(), "completed exceeds shard count");

    const std::vector<std::string> done_fields = split(lines[1], ' ');
    if (done_fields.size() != 2 || done_fields[0] != "done")
        fail_decode(path(), "bad bitmap line");
    std::vector<std::uint8_t> done = bitmap_of_hex(path(), done_fields[1], shard_count);
    std::uint64_t marked = 0;
    for (const std::uint8_t d : done) marked += d;
    if (marked != completed) fail_decode(path(), "bitmap disagrees with completed count");

    const std::vector<std::string> total_fields = split(lines[2], ' ');
    if (total_fields.size() != 8 || total_fields[0] != "total")
        fail_decode(path(), "bad total line");
    const ExactMomentsState total = decode_moments(path(), total_fields, 1);

    std::array<ExactMomentsState, k_fault_site_count> sites;
    for (std::size_t s = 0; s < k_fault_site_count; ++s) {
        const std::vector<std::string> fields = split(lines[3 + s], ' ');
        if (fields.size() != 9 || fields[0] != "site" ||
            fields[1] != std::to_string(s))
            fail_decode(path(), "bad site line");
        sites[s] = decode_moments(path(), fields, 2);
    }

    const std::vector<std::string> cores_line =
        split(lines[3 + k_fault_site_count], ' ');
    if (cores_line.size() != 2 || cores_line[0] != "cores")
        fail_decode(path(), "bad cores line");
    const std::vector<std::string> tasks_line =
        split(lines[4 + k_fault_site_count], ' ');
    if (tasks_line.size() != 2 || tasks_line[0] != "tasks")
        fail_decode(path(), "bad tasks line");

    CampaignTally partial;
    partial.shards = completed;
    partial.total = ExactMoments::from_state(total);
    for (std::size_t s = 0; s < k_fault_site_count; ++s)
        partial.per_site[s] = ExactMoments::from_state(sites[s]);
    partial.hits_per_core = u64s_of_csv(path(), cores_line[1]);
    partial.hits_per_task = u64s_of_csv(path(), tasks_line[1]);

    std::lock_guard lock(mutex_);
    shaped_ = true;
    shard_count_ = shard_count;
    done_ = std::move(done);
    partial_ = std::move(partial);
    set_flushed_locked(completed);
    return CampaignResumeInfo{completed, shard_count, loaded->from_fallback};
}

CampaignTally CampaignCheckpointer::initialize(std::uint64_t shard_count,
                                               std::size_t core_count,
                                               std::size_t task_count) {
    std::lock_guard lock(mutex_);
    if (shaped_ && partial_.shards > 0) {
        if (shard_count_ != shard_count || partial_.hits_per_core.size() != core_count ||
            partial_.hits_per_task.size() != task_count)
            throw Error(ErrorCategory::checkpoint_corrupt,
                        "campaign checkpoint shapes disagree with this run", path());
        return partial_;
    }
    shaped_ = true;
    shard_count_ = shard_count;
    done_.assign(shard_count, 0);
    partial_ = CampaignTally::zero(core_count, task_count);
    return partial_;
}

std::vector<std::uint8_t> CampaignCheckpointer::done_snapshot() const {
    std::lock_guard lock(mutex_);
    return done_;
}

void CampaignCheckpointer::record_shard(std::uint64_t shard, const CampaignTally& tally) {
    std::uint64_t now_completed = 0;
    {
        std::lock_guard lock(mutex_);
        if (shard >= done_.size() || done_[shard] != 0) return;
        done_[shard] = 1;
        partial_.merge(tally);
        now_completed = partial_.shards;
    }
    if (on_shard_recorded) on_shard_recorded(now_completed);
}

std::vector<std::string> CampaignCheckpointer::payload_locked() const {
    std::vector<std::string> lines;
    lines.reserve(k_payload_lines);
    lines.push_back("shards " + std::to_string(shard_count_) + " completed " +
                    std::to_string(partial_.shards));
    lines.push_back("done " + hex_of_bitmap(done_));
    std::string total = "total";
    encode_moments(total, partial_.total.state());
    lines.push_back(std::move(total));
    for (std::size_t s = 0; s < k_fault_site_count; ++s) {
        std::string line = "site " + std::to_string(s);
        encode_moments(line, partial_.per_site[s].state());
        lines.push_back(std::move(line));
    }
    lines.push_back("cores " + csv_of_u64s(partial_.hits_per_core));
    lines.push_back("tasks " + csv_of_u64s(partial_.hits_per_task));
    return lines;
}

} // namespace seamap
