#include "mod/rank.h"

#include <vector>

namespace fx {

std::size_t rank_of(std::size_t index) { return index + 1; }

std::size_t total_rank(std::size_t count) {
    std::vector<std::size_t> rank_of(count);
    std::size_t total = 0;
    for (std::size_t i = 0; i < count; ++i) total += rank_of[i] = i;
    return total;
}

} // namespace fx

int main() { return static_cast<int>(fx::total_rank(3)); }
