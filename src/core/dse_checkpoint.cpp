#include "core/dse_checkpoint.h"

#include "util/error.h"
#include "util/strings.h"

#include <utility>

namespace seamap {

namespace {

// --- payload encoding -----------------------------------------------
// One line per decided slot, space-separated fields:
//   pruned <combo>
//   nodesign <combo>
//   feasible <combo> <point> [minpower <point>]
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
    if (record.has_min_power) {
        out += " minpower";
        encode_point(out, record.min_power_point);
    }
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

/// Decode one <point> starting at fields[at]; advances `at`.
DsePoint decode_point(const std::string& path, const std::vector<std::string>& fields,
                      std::size_t& at, std::size_t task_count, std::size_t core_count) {
    if (fields.size() - at < 7) fail_decode(path, "truncated design point");
    DsePoint point;
    point.mapping = mapping_of_csv(path, fields[at], task_count, core_count);
    try {
        point.metrics.tm_seconds = double_of_hex(fields[at + 1]);
        point.metrics.latency_seconds = double_of_hex(fields[at + 2]);
        point.metrics.register_bits = parse_u64(fields[at + 3]);
        point.metrics.gamma = double_of_hex(fields[at + 4]);
        point.metrics.power_mw = double_of_hex(fields[at + 5]);
    } catch (const std::exception&) {
        fail_decode(path, "non-numeric design metrics");
    }
    if (fields[at + 6] != "0" && fields[at + 6] != "1")
        fail_decode(path, "bad feasibility flag '" + fields[at + 6] + "'");
    point.metrics.feasible = fields[at + 6] == "1";
    at += 7;
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
    std::size_t at = 2;
    record.point = decode_point(path, fields, at, task_count, core_count);
    if (at < fields.size()) {
        if (fields[at] != "minpower")
            fail_decode(path, "unexpected field '" + fields[at] + "' after design point");
        ++at;
        record.min_power_point = decode_point(path, fields, at, task_count, core_count);
        record.has_min_power = true;
    }
    if (at != fields.size()) fail_decode(path, "trailing fields on feasible record");
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

    // Application: name, batching, register inventory, tasks, edges.
    h.mix(graph.name());
    h.mix(graph.batch_count());
    const RegisterFile& regs = graph.register_file();
    h.mix(regs.size());
    for (std::size_t r = 0; r < regs.size(); ++r) {
        h.mix(regs.name(static_cast<RegisterId>(r)));
        h.mix(regs.bits(static_cast<RegisterId>(r)));
    }
    h.mix(graph.task_count());
    for (std::size_t t = 0; t < graph.task_count(); ++t) {
        const Task& task = graph.task(static_cast<TaskId>(t));
        h.mix(task.name);
        h.mix(task.exec_cycles);
        h.mix(task.registers.count());
        task.registers.for_each([&](RegisterId id) { h.mix(id); });
    }
    h.mix(graph.edge_count());
    for (const Edge& edge : graph.edges()) {
        h.mix(edge.src);
        h.mix(edge.dst);
        h.mix(edge.comm_cycles);
    }

    // Architecture: cores, operating points, power parameters.
    h.mix(arch.core_count());
    const VoltageScalingTable& table = arch.scaling_table();
    h.mix(table.level_count());
    for (std::size_t l = 1; l <= table.level_count(); ++l) {
        const OperatingPoint& op = table.at_level(static_cast<ScalingLevel>(l));
        h.mix_double(op.f_mhz);
        h.mix_double(op.vdd);
    }
    const PowerParams& power = arch.power_model().params();
    h.mix_double(power.c_eff_farads);
    h.mix_double(power.idle_activity);

    // Reliability model and constraint.
    const SerParams& sp = ser.params();
    h.mix_double(sp.ser_ref_per_bit_cycle);
    h.mix_double(sp.ref_vdd);
    h.mix_double(sp.ref_f_mhz);
    h.mix_double(sp.voltage_exponent_k);
    h.mix(static_cast<std::uint64_t>(policy));
    h.mix_double(deadline_seconds);

    // Search configuration. num_threads, EvalOptions and the wall-clock
    // budgets are deliberately absent: the result is invariant to them,
    // and resuming across thread counts is the point of the feature.
    const LocalSearchParams& s = params.search;
    h.mix(s.max_iterations);
    h.mix_double(s.initial_temperature);
    h.mix_double(s.final_temperature);
    h.mix_double(s.swap_probability);
    h.mix(s.sweep_interval);
    h.mix(static_cast<std::uint64_t>(s.require_all_cores));
    h.mix(s.restarts);
    h.mix(s.seed);
    h.mix(static_cast<std::uint64_t>(s.track_min_power));
    h.mix(static_cast<std::uint64_t>(params.use_initial_sea_mapping));
    h.mix_double(params.power_tie_tolerance);
    h.mix(static_cast<std::uint64_t>(params.prune));
    // One search per slot. The constant keeps the hash of snapshots
    // written while the per-slot search count was still a knob (always
    // 1 by default) unchanged, so they keep resuming.
    h.mix(std::uint64_t{1});
    h.mix(strategy_name);
    return h.value();
}

DseCheckpointer::DseCheckpointer(std::string path, std::uint64_t state_hash)
    : path_(std::move(path)), state_hash_(state_hash) {}

void DseCheckpointer::set_cadence(std::uint64_t every_records, double interval_seconds) {
    std::lock_guard lock(mutex_);
    every_records_ = every_records;
    timer_ = IntervalTimer(interval_seconds);
}

std::optional<DseResumeInfo> DseCheckpointer::load(std::size_t task_count,
                                                   std::size_t core_count) {
    std::optional<CheckpointLoad> loaded = load_checkpoint(path_, "dse", state_hash_);
    if (!loaded) return std::nullopt;
    DseResumeState state;
    state.from_fallback = loaded->from_fallback;
    state.records.reserve(loaded->data.lines.size());
    for (const std::string& line : loaded->data.lines)
        state.records.push_back(decode_record(path_, line, task_count, core_count));
    std::lock_guard lock(mutex_);
    lines_ = std::move(loaded->data.lines);
    flushed_lines_ = lines_.size();
    resume_ = std::move(state);
    DseResumeInfo info;
    info.slots_decided = resume_->records.size();
    info.from_fallback = resume_->from_fallback;
    return info;
}

void DseCheckpointer::record(const DseSlotRecord& record) {
    std::lock_guard lock(mutex_);
    lines_.push_back(encode_record(record));
}

void DseCheckpointer::maybe_flush() {
    std::lock_guard lock(mutex_);
    if (lines_.size() == flushed_lines_) return;
    const bool by_count =
        every_records_ > 0 && lines_.size() - flushed_lines_ >= every_records_;
    if (!by_count && !timer_.due()) return;
    flush_locked();
}

void DseCheckpointer::flush() {
    std::lock_guard lock(mutex_);
    if (lines_.size() == flushed_lines_) return;
    flush_locked();
}

void DseCheckpointer::remove() {
    std::lock_guard lock(mutex_);
    remove_checkpoint(path_);
    flushed_lines_ = 0;
}

std::uint64_t DseCheckpointer::recorded() const {
    std::lock_guard lock(mutex_);
    return lines_.size();
}

void DseCheckpointer::flush_locked() {
    CheckpointData data;
    data.kind = "dse";
    data.state_hash = state_hash_;
    data.lines = lines_;
    save_checkpoint(path_, data);
    flushed_lines_ = lines_.size();
    timer_.reset();
}

} // namespace seamap
