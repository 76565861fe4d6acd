// Concurrency stress for parallel_for_index, written to run under
// ThreadSanitizer (the tsan CMake preset / CI job): the shared index
// counter under many threads and exception capture across threads.
// The assertions also hold un-sanitized; TSan adds the happens-before
// checking.
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace seamap {
namespace {

TEST(ParallelStress, ParallelForIndexCoversEveryIndexExactlyOnce) {
    constexpr std::size_t count = 10000;
    std::vector<std::atomic<int>> hits(count);
    parallel_for_index(count, 8, [&hits](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelStress, ParallelForIndexRethrowsOnCaller) {
    EXPECT_THROW(parallel_for_index(64, 4,
                                    [](std::size_t i) {
                                        if (i == 13) throw std::runtime_error("boom");
                                    }),
                 std::runtime_error);
}

} // namespace
} // namespace seamap
