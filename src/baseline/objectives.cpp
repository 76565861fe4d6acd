#include "baseline/objectives.h"

#include <stdexcept>

namespace seamap {

double objective_value(MappingObjective objective, const DesignMetrics& metrics) {
    switch (objective) {
    case MappingObjective::register_usage: return static_cast<double>(metrics.register_bits);
    case MappingObjective::makespan: return metrics.tm_seconds;
    case MappingObjective::time_register_product:
        return metrics.tm_seconds * static_cast<double>(metrics.register_bits);
    case MappingObjective::seu_count: return metrics.gamma;
    }
    throw std::invalid_argument("objective_value: unknown objective");
}

} // namespace seamap
