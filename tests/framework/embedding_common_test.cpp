/// Tests for the embedding ops' distinct-index count and locality score.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "framework/embedding_common.h"

namespace mystique::fw {
namespace {

Tensor
indices_of(const std::vector<int64_t>& values)
{
    Tensor t = Tensor::create({static_cast<int64_t>(values.size())}, DType::kInt64, true);
    std::copy(values.begin(), values.end(), t.i64());
    return t;
}

/// The node-based count unique_indices() must reproduce exactly: a
/// std::unordered_set over the same strided sample, scaled the same way.
int64_t
set_count(const std::vector<int64_t>& values)
{
    const auto n = static_cast<int64_t>(values.size());
    if (n == 0)
        return 0;
    constexpr int64_t kMaxSample = 1 << 15;
    const int64_t stride = n > kMaxSample ? n / kMaxSample : 1;
    std::unordered_set<int64_t> uniq;
    int64_t sampled = 0;
    for (int64_t i = 0; i < n; i += stride, ++sampled)
        uniq.insert(values[static_cast<std::size_t>(i)]);
    const double ratio = static_cast<double>(uniq.size()) / static_cast<double>(sampled);
    return static_cast<int64_t>(ratio * static_cast<double>(n));
}

void
expect_exact(const std::vector<int64_t>& values)
{
    EXPECT_EQ(unique_indices(indices_of(values)), set_count(values))
        << "numel " << values.size();
}

std::vector<int64_t>
zipf_values(uint64_t seed, int64_t count, int64_t rows)
{
    Rng r(seed);
    std::vector<int64_t> v(static_cast<std::size_t>(count));
    r.zipf_fill(v.data(), count, rows, 1.05);
    return v;
}

TEST(UniqueIndices, SmallEdgeCases)
{
    expect_exact({});
    expect_exact({42});
    expect_exact(std::vector<int64_t>(1000, 7));
    expect_exact({-1, -2, -1, -3, -2, -1000000007, 5, -3});
    expect_exact({INT64_MIN, INT64_MAX, INT64_MIN, 0, -1, INT64_MAX, INT64_MIN + 1});
    expect_exact({INT64_MIN});
    EXPECT_EQ(unique_indices(indices_of({INT64_MIN, 3, INT64_MIN, 3})), 2);
}

TEST(UniqueIndices, SampleBoundaryAndStridedPath)
{
    for (const int64_t n : {int64_t{32768}, int64_t{32769}, int64_t{3100000}})
        expect_exact(zipf_values(static_cast<uint64_t>(n), n, 2000000));
    // Values spread over the whole 64-bit range, not only small row numbers.
    Rng r(5);
    std::vector<int64_t> wide(40000);
    for (auto& v : wide)
        v = static_cast<int64_t>(r.next_u64() >> (r.next_u64() % 64));
    expect_exact(wide);
}

TEST(UniqueIndices, RepeatedCallsOnOneThreadStayExact)
{
    // The per-thread table is reused: a large call followed by small ones
    // (and back) must not see a previous call's rows.
    const std::vector<int64_t> big = zipf_values(1, 3100000, 2000000);
    const std::vector<int64_t> small = zipf_values(2, 100, 50);
    const std::vector<int64_t> shifted = zipf_values(3, 32769, 1000);
    for (int round = 0; round < 2; ++round) {
        expect_exact(big);
        expect_exact(small);
        expect_exact(shifted);
        expect_exact({INT64_MIN, 1});
        expect_exact({1});
    }
}

TEST(UniqueIndices, NonMaterializedReturnsNumel)
{
    EXPECT_EQ(unique_indices(Tensor::create({100}, DType::kInt64, false)), 100);
}

TEST(EmbeddingLocality, ScoresReuseAndClamps)
{
    EXPECT_DOUBLE_EQ(embedding_locality(0, 0), 0.5);
    EXPECT_DOUBLE_EQ(embedding_locality(100, 100), 0.08);
    EXPECT_DOUBLE_EQ(embedding_locality(100, 50), 0.08 + 0.9 * 0.5);
    EXPECT_DOUBLE_EQ(embedding_locality(1000, 1), 0.95);
}

} // namespace
} // namespace mystique::fw
