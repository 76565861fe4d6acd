#include "core/dse_checkpoint.h"

#include "reliability/state_hash.h"
#include "util/error.h"
#include "util/strings.h"

#include <utility>

namespace seamap {

namespace {

// --- payload encoding -----------------------------------------------
// One line per decided slot, space-separated fields:
//   pruned <combo>
//   nodesign <combo>
//   feasible <combo> <point>
// where <point> = <mapping csv> <tm> <latency> <register_bits> <gamma>
// <power> <feasible 0|1>, doubles rendered as bit-exact hex
// (util/checkpoint.h) so a resumed run is byte-identical. Scaling
// levels are not stored: the combination index recovers them from the
// deterministic enumeration on resume.

std::string csv_of_mapping(const Mapping& mapping) {
    std::string out;
    const std::vector<CoreId>& raw = mapping.raw();
    for (std::size_t i = 0; i < raw.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(raw[i]);
    }
    return out;
}

void encode_point(std::string& out, const DsePoint& point) {
    out += ' ';
    out += csv_of_mapping(point.mapping);
    out += ' ' + hex_of_double(point.metrics.tm_seconds);
    out += ' ' + hex_of_double(point.metrics.latency_seconds);
    out += ' ' + std::to_string(point.metrics.register_bits);
    out += ' ' + hex_of_double(point.metrics.gamma);
    out += ' ' + hex_of_double(point.metrics.power_mw);
    out += point.metrics.feasible ? " 1" : " 0";
}

std::string encode_record(const DseSlotRecord& record) {
    switch (record.kind) {
    case DseSlotRecord::Kind::pruned: return "pruned " + std::to_string(record.combo);
    case DseSlotRecord::Kind::no_design: return "nodesign " + std::to_string(record.combo);
    case DseSlotRecord::Kind::feasible: break;
    }
    std::string out = "feasible " + std::to_string(record.combo);
    encode_point(out, record.point);
    return out;
}

[[noreturn]] void fail_decode(const std::string& path, const std::string& why) {
    throw Error(ErrorCategory::checkpoint_corrupt, "corrupt dse checkpoint payload: " + why,
                path);
}

Mapping mapping_of_csv(const std::string& path, const std::string& csv,
                       std::size_t task_count, std::size_t core_count) {
    const std::vector<std::string> fields = split(csv, ',');
    if (fields.size() != task_count)
        fail_decode(path, "mapping has " + std::to_string(fields.size()) + " entries for " +
                              std::to_string(task_count) + " tasks");
    Mapping mapping(task_count, core_count);
    for (std::size_t t = 0; t < fields.size(); ++t) {
        unsigned long long core = 0;
        try {
            core = parse_u64(fields[t]);
        } catch (const std::exception&) {
            fail_decode(path, "non-numeric mapping entry '" + fields[t] + "'");
        }
        if (core >= core_count)
            fail_decode(path, "mapping entry " + std::to_string(core) + " exceeds core count " +
                                  std::to_string(core_count));
        mapping.assign(static_cast<TaskId>(t), static_cast<CoreId>(core));
    }
    return mapping;
}

/// Decode the <point> of a feasible record (fields[2..8]).
DsePoint decode_point(const std::string& path, const std::vector<std::string>& fields,
                      std::size_t task_count, std::size_t core_count) {
    if (fields.size() < 9) fail_decode(path, "truncated design point");
    if (fields.size() > 9) fail_decode(path, "trailing fields on feasible record");
    DsePoint point;
    point.mapping = mapping_of_csv(path, fields[2], task_count, core_count);
    try {
        point.metrics.tm_seconds = double_of_hex(fields[3]);
        point.metrics.latency_seconds = double_of_hex(fields[4]);
        point.metrics.register_bits = parse_u64(fields[5]);
        point.metrics.gamma = double_of_hex(fields[6]);
        point.metrics.power_mw = double_of_hex(fields[7]);
    } catch (const std::exception&) {
        fail_decode(path, "non-numeric design metrics");
    }
    if (fields[8] != "0" && fields[8] != "1")
        fail_decode(path, "bad feasibility flag '" + fields[8] + "'");
    point.metrics.feasible = fields[8] == "1";
    return point;
}

DseSlotRecord decode_record(const std::string& path, const std::string& line,
                            std::size_t task_count, std::size_t core_count) {
    const std::vector<std::string> fields = split(line, ' ');
    if (fields.size() < 2) fail_decode(path, "short record line");
    DseSlotRecord record;
    try {
        record.combo = parse_u64(fields[1]);
    } catch (const std::exception&) {
        fail_decode(path, "non-numeric combination index '" + fields[1] + "'");
    }
    if (fields[0] == "pruned") {
        record.kind = DseSlotRecord::Kind::pruned;
        if (fields.size() != 2) fail_decode(path, "trailing fields on pruned record");
        return record;
    }
    if (fields[0] == "nodesign") {
        record.kind = DseSlotRecord::Kind::no_design;
        if (fields.size() != 2) fail_decode(path, "trailing fields on nodesign record");
        return record;
    }
    if (fields[0] != "feasible") fail_decode(path, "unknown record kind '" + fields[0] + "'");
    record.kind = DseSlotRecord::Kind::feasible;
    record.point = decode_point(path, fields, task_count, core_count);
    return record;
}

} // namespace

std::uint64_t dse_state_hash(const TaskGraph& graph, const MpsocArchitecture& arch,
                             double deadline_seconds, const DseParams& params,
                             const SerModel& ser, ExposurePolicy policy,
                             std::string_view strategy_name) {
    HashStream h;
    // v2: the lazy bound-sorted enumeration (core/lazy_scaling_queue.h)
    // changed the slot pop order, so v1 snapshots do not replay; the
    // salt makes them fail the state-hash check cleanly.
    h.mix("seamap-dse-state-v2");

    mix_graph_and_architecture(h, graph, arch);

    // Reliability model and constraint.
    mix_ser_model(h, ser);
    h.mix(static_cast<std::uint64_t>(policy));
    h.mix_double(deadline_seconds);

    // Search configuration. num_threads is deliberately absent: the
    // result is invariant to it, and resuming across thread counts is
    // the point of the feature.
    const LocalSearchParams& s = params.search;
    h.mix(s.max_iterations);
    // The retired temperature knobs, now constants, keep older hashes.
    h.mix_double(k_initial_temperature);
    h.mix_double(k_final_temperature);
    h.mix_double(s.swap_probability);
    h.mix(s.sweep_interval);
    h.mix(static_cast<std::uint64_t>(s.require_all_cores));
    h.mix(s.restarts);
    h.mix(s.seed);
    // The retired min-power tracking flag (always 0 by default): the
    // constant keeps older snapshots' hash, so they keep resuming.
    h.mix(std::uint64_t{0});
    // Retired knobs at their only values (Fig. 6 start on, 5e-3 power tie
    // window), so older snapshots keep their hash.
    h.mix(std::uint64_t{1});
    h.mix_double(5e-3);
    h.mix(static_cast<std::uint64_t>(params.prune));
    // One search per slot. The constant keeps the hash of snapshots
    // written while the per-slot search count was still a knob (always
    // 1 by default) unchanged, so they keep resuming.
    h.mix(std::uint64_t{1});
    h.mix(strategy_name);
    return h.value();
}

DseCheckpointer::DseCheckpointer(std::string path, std::uint64_t state_hash)
    : Checkpointer(std::move(path), "dse", state_hash) {}

std::optional<DseResumeInfo> DseCheckpointer::load(std::size_t task_count,
                                                   std::size_t core_count) {
    std::optional<CheckpointLoad> loaded = load_snapshot();
    if (!loaded) return std::nullopt;
    DseResumeState state;
    state.from_fallback = loaded->from_fallback;
    state.records.reserve(loaded->data.lines.size());
    for (const std::string& line : loaded->data.lines)
        state.records.push_back(decode_record(path(), line, task_count, core_count));
    std::lock_guard lock(mutex_);
    lines_ = std::move(loaded->data.lines);
    set_flushed_locked(lines_.size());
    resume_ = std::move(state);
    return DseResumeInfo{resume_->records.size(), resume_->from_fallback};
}

void DseCheckpointer::record(const DseSlotRecord& record) {
    std::lock_guard lock(mutex_);
    lines_.push_back(encode_record(record));
}

} // namespace seamap
