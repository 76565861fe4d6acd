#include "arch/scaling_enumerator.h"

#include "util/error.h"

#include <limits>
#include <string>

namespace seamap {

std::uint64_t scaling_combination_count(std::size_t core_count, std::size_t level_count) {
    if (core_count == 0 || level_count == 0) return 0;
    // C(core_count + level_count - 1, level_count - 1), computed
    // multiplicatively: step i turns C(m - 1, i - 1) into C(m, i) with
    // m = core_count + i. The 128-bit product cannot overflow and
    // the quotient is exact; the partial values grow with i, so a step
    // past 2^64 means the count itself is unrepresentable.
    const std::uint64_t k = level_count - 1;
    std::uint64_t result = 1;
    for (std::uint64_t i = 1; i <= k; ++i) {
        const unsigned __int128 next =
            static_cast<unsigned __int128>(result) * (core_count + i) / i;
        if (next > std::numeric_limits<std::uint64_t>::max())
            throw Error(ErrorCategory::invalid_argument,
                        "scaling space: " + std::to_string(core_count) + " cores x " +
                            std::to_string(level_count) +
                            " levels have more than 2^64 scaling combinations");
        result = static_cast<std::uint64_t>(next);
    }
    return result;
}

} // namespace seamap
