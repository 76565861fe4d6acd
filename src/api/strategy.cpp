#include "api/strategy.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace seamap {

AnnealingStrategy::AnnealingStrategy(LocalSearchParams params, MappingObjective objective)
    : params_(params), objective_(objective) {
    validate(params_);
}

std::string AnnealingStrategy::name() const { return "annealing"; }

LocalSearchResult AnnealingStrategy::search(const EvaluationContext& ctx,
                                            const Mapping& initial, std::uint64_t seed,
                                            const CancellationToken* cancel) const {
    EvalContext eval(ctx);
    return search(eval, initial, seed, cancel);
}

LocalSearchResult AnnealingStrategy::search(EvalContext& eval, const Mapping& initial,
                                            std::uint64_t seed,
                                            const CancellationToken* cancel) const {
    LocalSearchParams params = params_;
    params.seed = seed;
    return SimulatedAnnealingMapper(params).optimize(eval, objective_, initial, cancel);
}

namespace {

struct Registry {
    std::mutex mutex;
    std::vector<std::pair<std::string, StrategyFactory>> entries;

    Registry() {
        entries.emplace_back("optimized", [](const StrategyOptions& options) {
            return std::make_unique<OptimizedMappingStrategy>(options);
        });
        entries.emplace_back("annealing", [](const StrategyOptions& options) {
            return std::make_unique<AnnealingStrategy>(options);
        });
    }
};

Registry& registry() {
    static Registry instance;
    return instance;
}

} // namespace

bool register_search_strategy(std::string name, StrategyFactory factory) {
    Registry& reg = registry();
    std::lock_guard lock(reg.mutex);
    for (const auto& [existing, _] : reg.entries)
        if (existing == name) return false;
    reg.entries.emplace_back(std::move(name), std::move(factory));
    return true;
}

std::unique_ptr<SearchStrategy> make_search_strategy(std::string_view name,
                                                     const StrategyOptions& options) {
    Registry& reg = registry();
    StrategyFactory factory;
    {
        std::lock_guard lock(reg.mutex);
        for (const auto& [existing, candidate] : reg.entries)
            if (existing == name) factory = candidate;
    }
    if (!factory) {
        std::string known;
        for (const std::string& entry : search_strategy_names()) {
            if (!known.empty()) known += ", ";
            known += entry;
        }
        throw std::invalid_argument("unknown search strategy '" + std::string(name) +
                                    "' (known: " + known + ")");
    }
    std::unique_ptr<SearchStrategy> strategy = factory(options);
    if (strategy == nullptr)
        throw std::invalid_argument("search strategy factory for '" + std::string(name) +
                                    "' returned null (options it cannot satisfy?)");
    return strategy;
}

std::vector<std::string> search_strategy_names() {
    Registry& reg = registry();
    std::vector<std::string> names;
    {
        std::lock_guard lock(reg.mutex);
        names.reserve(reg.entries.size());
        for (const auto& [name, _] : reg.entries) names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

} // namespace seamap
