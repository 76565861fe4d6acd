// util/parallel contract: the "0 means hardware" thread-count rule is
// resolved in one place, and parallel_for_index covers every index once
// and rethrows a call's exception on the caller's thread.
#include "util/parallel.h"

#include <atomic>
#include <gtest/gtest.h>
#include <stdexcept>
#include <vector>

namespace seamap {
namespace {

TEST(Parallel, ZeroResolvesToHardwareConcurrencyInOnePlace) {
    EXPECT_EQ(resolve_thread_count(0), hardware_threads());
    EXPECT_EQ(resolve_thread_count(1), 1u);
    EXPECT_EQ(resolve_thread_count(5), 5u);
    EXPECT_GE(hardware_threads(), 1u);
}

TEST(Parallel, ParallelForCoversEveryIndexOnce) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    parallel_for_index(hits.size(), 8, [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ParallelForPropagatesExceptions) {
    EXPECT_THROW(parallel_for_index(64, 4,
                                    [](std::size_t i) {
                                        if (i == 13) throw std::runtime_error("boom");
                                    }),
                 std::runtime_error);
}

} // namespace
} // namespace seamap
