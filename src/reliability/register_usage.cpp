#include "reliability/register_usage.h"

#include <stdexcept>

namespace seamap {

std::vector<std::uint64_t> per_core_register_bits(const TaskGraph& graph, const Mapping& mapping,
                                                  std::size_t core_count) {
    if (mapping.task_count() != graph.task_count())
        throw std::invalid_argument("per_core_register_bits: mapping/graph size mismatch");
    std::vector<RegisterSet> unions(core_count, RegisterSet(graph.register_file().size()));
    for (TaskId t = 0; t < graph.task_count(); ++t) {
        if (!mapping.is_assigned(t)) continue;
        const CoreId core = mapping.core_of(t);
        if (core >= core_count)
            throw std::out_of_range("per_core_register_bits: bad core id in mapping");
        unions[core] |= graph.task(t).registers;
    }
    std::vector<std::uint64_t> bits(core_count, 0);
    for (std::size_t c = 0; c < core_count; ++c)
        bits[c] = unions[c].bits_in(graph.register_file());
    return bits;
}

std::uint64_t total_register_bits(const TaskGraph& graph, const Mapping& mapping,
                                  std::size_t core_count) {
    std::uint64_t total = 0;
    for (std::uint64_t bits : per_core_register_bits(graph, mapping, core_count)) total += bits;
    return total;
}

} // namespace seamap
