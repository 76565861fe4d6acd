#include "core/dse_checkpoint.h"

#include "reliability/state_hash.h"

#include <utility>

namespace seamap {

namespace {

// --- record encoding ------------------------------------------------
// One record per decided slot, space-separated fields:
//   pruned <combo>
//   nodesign <combo>
//   feasible <combo> <point>
// where <point> = <mapping csv> <tm> <latency> <register_bits> <gamma>
// <power> <feasible 0|1>, doubles rendered as bit-exact hex
// (util/checkpoint.h) so a resumed run is byte-identical. Scaling
// levels are not stored: the combination index recovers them from the
// deterministic enumeration on resume.

void encode_point(std::string& out, const DsePoint& point) {
    out += ' ' + csv_of(point.mapping.raw());
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

/// Decode the <point> of a feasible record (fields 2..8).
DsePoint decode_point(const RecordFields& fields, std::size_t task_count,
                      std::size_t core_count) {
    if (fields.size() != 9)
        fields.fail("feasible record has " + std::to_string(fields.size()) +
                    " fields, not 9");
    const std::vector<std::uint64_t> cores = fields.u64s(2);
    if (cores.size() != task_count)
        fields.fail("mapping has " + std::to_string(cores.size()) + " entries for " +
                    std::to_string(task_count) + " tasks");
    DsePoint point;
    point.mapping = Mapping(task_count, core_count);
    for (std::size_t t = 0; t < task_count; ++t) {
        if (cores[t] >= core_count)
            fields.fail("mapping entry " + std::to_string(cores[t]) + " exceeds core count " +
                        std::to_string(core_count));
        point.mapping.assign(static_cast<TaskId>(t), static_cast<CoreId>(cores[t]));
    }
    point.metrics.tm_seconds = fields.hex_double(3);
    point.metrics.latency_seconds = fields.hex_double(4);
    point.metrics.register_bits = fields.u64(5);
    point.metrics.gamma = fields.hex_double(6);
    point.metrics.power_mw = fields.hex_double(7);
    if (fields[8] != "0" && fields[8] != "1")
        fields.fail("bad feasibility flag '" + fields[8] + "'");
    point.metrics.feasible = fields[8] == "1";
    return point;
}

DseSlotRecord decode_record(const RecordFields& fields, std::size_t task_count,
                            std::size_t core_count) {
    DseSlotRecord record;
    record.combo = fields.u64(1);
    if (fields[0] == "pruned" || fields[0] == "nodesign") {
        record.kind = fields[0] == "pruned" ? DseSlotRecord::Kind::pruned
                                            : DseSlotRecord::Kind::no_design;
        if (fields.size() != 2) fields.fail("trailing fields on " + fields[0] + " record");
        return record;
    }
    if (fields[0] != "feasible") fields.fail("unknown record kind '" + fields[0] + "'");
    record.kind = DseSlotRecord::Kind::feasible;
    record.point = decode_point(fields, task_count, core_count);
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
    const std::optional<std::vector<std::string>> lines = load_records();
    if (!lines) return std::nullopt;
    DseResumeState state;
    state.records.reserve(lines->size());
    for (const std::string& line : *lines)
        state.records.push_back(decode_record(RecordFields(path(), line), task_count,
                                              core_count));
    resume_ = std::move(state);
    return DseResumeInfo{resume_->records.size()};
}

void DseCheckpointer::record(const DseSlotRecord& record) { append(encode_record(record)); }

} // namespace seamap
