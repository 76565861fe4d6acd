#include "api/strategy.h"

#include <stdexcept>

namespace seamap {

std::unique_ptr<SearchStrategy> make_search_strategy(std::string_view name,
                                                     const LocalSearchParams& params) {
    if (name == "optimized") return std::make_unique<OptimizedMappingStrategy>(params);
    if (name == "annealing") return std::make_unique<AnnealingStrategy>(params);
    std::string known;
    for (const std::string& entry : search_strategy_names()) {
        if (!known.empty()) known += ", ";
        known += entry;
    }
    throw std::invalid_argument("unknown search strategy '" + std::string(name) +
                                "' (known: " + known + ")");
}

std::vector<std::string> search_strategy_names() { return {"annealing", "optimized"}; }

} // namespace seamap
