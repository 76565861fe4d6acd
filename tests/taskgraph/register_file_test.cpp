#include "taskgraph/register_file.h"

#include <gtest/gtest.h>

#include <vector>

namespace seamap {
namespace {

/// Members of `set` in ascending id order.
std::vector<RegisterId> members(const RegisterSet& set) {
    std::vector<RegisterId> out;
    set.for_each([&](RegisterId id) { out.push_back(id); });
    return out;
}

TEST(RegisterFile, AddAndQuery) {
    RegisterFile file;
    const RegisterId a = file.add_register("a", 1024);
    const RegisterId b = file.add_register("b", 2048);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(file.size(), 2u);
    EXPECT_EQ(file.bits(a), 1024u);
    EXPECT_EQ(file.name(b), "b");
    EXPECT_EQ(file.total_bits(), 3072u);
    EXPECT_FALSE(file.empty());
}

TEST(RegisterFile, RejectsZeroWidth) {
    RegisterFile file;
    EXPECT_THROW(file.add_register("zero", 0), std::invalid_argument);
}

TEST(RegisterFile, BadIdThrows) {
    RegisterFile file;
    file.add_register("only", 8);
    EXPECT_THROW(file.bits(1), std::out_of_range);
    EXPECT_THROW(file.name(99), std::out_of_range);
}

TEST(RegisterSet, SetTestResetClear) {
    RegisterSet set(100);
    EXPECT_TRUE(set.empty());
    set.set(0);
    set.set(63);
    set.set(64);
    set.set(99);
    EXPECT_EQ(members(set), (std::vector<RegisterId>{0, 63, 64, 99}));
    EXPECT_EQ(set.count(), 4u);
    set.reset(63);
    EXPECT_EQ(members(set), (std::vector<RegisterId>{0, 64, 99}));
    EXPECT_EQ(set.count(), 3u);
    set.clear();
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.count(), 0u);
}

TEST(RegisterSet, OutOfUniverseThrows) {
    RegisterSet set(10);
    EXPECT_THROW(set.set(10), std::out_of_range);
    EXPECT_THROW(set.reset(10), std::out_of_range);
}

TEST(RegisterSet, UnionAndIntersection) {
    RegisterSet a(70), b(70);
    a.set(1);
    a.set(65);
    b.set(65);
    b.set(2);

    RegisterSet u = a | b;
    EXPECT_EQ(u.count(), 3u);
    EXPECT_EQ(members(u), (std::vector<RegisterId>{1, 2, 65}));

    RegisterSet i = a & b;
    EXPECT_EQ(i.count(), 1u);
    EXPECT_EQ(members(i), (std::vector<RegisterId>{65}));
}

TEST(RegisterSet, UniverseMismatchThrows) {
    RegisterSet a(10), b(20);
    EXPECT_THROW(a |= b, std::invalid_argument);
    EXPECT_THROW(a &= b, std::invalid_argument);
}

TEST(RegisterSet, WeightedBits) {
    RegisterFile file;
    file.add_register("r0", 100);
    file.add_register("r1", 200);
    file.add_register("r2", 400);
    RegisterSet set(file.size());
    set.set(0);
    set.set(2);
    EXPECT_EQ(set.bits_in(file), 500u);
}

TEST(RegisterSet, BitsInChecksUniverse) {
    RegisterFile file;
    file.add_register("r0", 1);
    RegisterSet set(2);
    EXPECT_THROW(set.bits_in(file), std::invalid_argument);
}

TEST(RegisterSet, ForEachVisitsAscending) {
    RegisterSet set(130);
    set.set(5);
    set.set(64);
    set.set(129);
    std::vector<RegisterId> visited;
    set.for_each([&](RegisterId id) { visited.push_back(id); });
    ASSERT_EQ(visited.size(), 3u);
    EXPECT_EQ(visited[0], 5u);
    EXPECT_EQ(visited[1], 64u);
    EXPECT_EQ(visited[2], 129u);
}

TEST(RegisterSet, EqualityComparable) {
    RegisterSet a(16), b(16);
    a.set(3);
    b.set(3);
    EXPECT_EQ(a, b);
    b.set(4);
    EXPECT_NE(a, b);
}

} // namespace
} // namespace seamap
