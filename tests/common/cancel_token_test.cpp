/// CancelToken deadlines (common/cancel_token.h): a deadline beyond the
/// steady clock's range saturates instead of wrapping into the past.

#include <gtest/gtest.h>

#include <cstdint>

#include "common/cancel_token.h"

namespace mystique {
namespace {

TEST(CancelToken, HugeDeadlinesNeverExpire)
{
    // UINT64_MAX ms used to become -1 ms, and 10^13 ms overflowed the clock.
    for (const uint64_t ms : {uint64_t{3'600'000}, uint64_t{10'000'000'000'000}, UINT64_MAX}) {
        CancelToken token;
        token.set_deadline_after_ms(ms);
        EXPECT_FALSE(token.expired()) << ms;
        EXPECT_NO_THROW(token.throw_if_expired("unit")) << ms;
    }
}

} // namespace
} // namespace mystique
