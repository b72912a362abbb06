/// Tests for FlatInt64Map against std::map on the same keys.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "common/flat_map.h"

namespace mystique {
namespace {

TEST(FlatInt64Map, CountsEveryKeyExactly)
{
    const std::vector<int64_t> keys = {0, 7, 7, -3, INT64_MIN, INT64_MAX, 7, -3, 1 << 20, 0};
    FlatInt64Map<int> counts;
    std::map<int64_t, int> want;
    for (const int64_t k : keys) {
        ++counts[k];
        ++want[k];
    }
    EXPECT_EQ(counts.size(), want.size());
    for (const auto& [k, n] : want) {
        ASSERT_NE(counts.find(k), nullptr) << k;
        EXPECT_EQ(*counts.find(k), n) << k;
    }
    EXPECT_EQ(counts.find(8), nullptr);
    EXPECT_EQ(counts.find(-1), nullptr);
}

TEST(FlatInt64Map, EmptyMapFindsNothing)
{
    const FlatInt64Map<int> empty;
    EXPECT_EQ(empty.find(0), nullptr);
    EXPECT_EQ(empty.find(INT64_MIN), nullptr);
    EXPECT_EQ(empty.size(), 0u);
}

TEST(FlatInt64Map, TryEmplaceKeepsTheFirstValue)
{
    FlatInt64Map<int> m;
    const auto [first, fresh] = m.try_emplace(42, 1);
    EXPECT_TRUE(fresh);
    EXPECT_EQ(*first, 1);
    const auto [again, fresh_again] = m.try_emplace(42, 2);
    EXPECT_FALSE(fresh_again);
    EXPECT_EQ(*again, 1);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatInt64Map, GrowsThroughManyCollidingKeys)
{
    // Multiples of a large power of two share their low bits; every key must
    // survive each doubling.
    FlatInt64Map<int> m;
    std::map<int64_t, int> want;
    for (int i = 0; i < 20000; ++i) {
        const int64_t k = static_cast<int64_t>(i - 10000) << 32;
        m.try_emplace(k, i);
        want.emplace(k, i);
    }
    ASSERT_EQ(m.size(), want.size());
    for (const auto& [k, v] : want) {
        ASSERT_NE(m.find(k), nullptr) << k;
        EXPECT_EQ(*m.find(k), v) << k;
    }
}

TEST(FlatInt64Map, ResetEmptiesAndStaysUsable)
{
    FlatInt64Map<int> m;
    for (int64_t k = 0; k < 1000; ++k)
        m[k] = 1;
    m.reset(4);
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.find(3), nullptr);
    for (int64_t k = 0; k < 100; ++k)
        ++m[k % 10];
    EXPECT_EQ(m.size(), 10u);
    EXPECT_EQ(*m.find(9), 10);
}

} // namespace
} // namespace mystique
