/// CachedHash (common/hash.h): computed once, kept by a copy, carried by a
/// move that leaves the source to compute again.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "common/hash.h"

namespace mystique {
namespace {

TEST(CachedHash, CopiesKeepAndMovesCarryTheCachedValue)
{
    int computed = 0;
    const auto compute = [&computed] {
        ++computed;
        return uint64_t{42};
    };

    CachedHash a;
    EXPECT_EQ(a.get(compute), 42u);
    EXPECT_EQ(a.get(compute), 42u);
    EXPECT_EQ(computed, 1);

    CachedHash copy = a;
    EXPECT_EQ(copy.get(compute), 42u);
    CachedHash assigned;
    assigned = a;
    EXPECT_EQ(assigned.get(compute), 42u);
    EXPECT_EQ(computed, 1);

    CachedHash moved = std::move(a);
    EXPECT_EQ(moved.get(compute), 42u);
    EXPECT_EQ(computed, 1);
    EXPECT_EQ(a.get(compute), 42u); // recomputed
    EXPECT_EQ(computed, 2);

    CachedHash move_assigned;
    move_assigned = std::move(copy);
    EXPECT_EQ(move_assigned.get(compute), 42u);
    EXPECT_EQ(computed, 2);
    EXPECT_EQ(copy.get(compute), 42u); // recomputed
    EXPECT_EQ(computed, 3);

    moved.reset();
    EXPECT_EQ(moved.get(compute), 42u);
    EXPECT_EQ(computed, 4);
}

} // namespace
} // namespace mystique
