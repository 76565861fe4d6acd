#include "reliability/state_hash.h"

namespace seamap {

void mix_graph_and_architecture(HashStream& h, const TaskGraph& graph,
                                const MpsocArchitecture& arch) {
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
}

void mix_ser_model(HashStream& h, const SerModel& ser) {
    const SerParams& sp = ser.params();
    h.mix_double(sp.ser_ref_per_bit_cycle);
    h.mix_double(sp.ref_vdd);
    h.mix_double(sp.ref_f_mhz);
    h.mix_double(sp.voltage_exponent_k);
}

} // namespace seamap
