#pragma once

/// @file
/// Shared helpers for embedding-lookup operators (ATen and FBGEMM-style).
///
/// Embedding lookups are the paper's documented value-dependent case (§4.4):
/// the index tensor's *values* determine the access pattern and therefore
/// performance.  We quantify that as a locality score derived from index
/// reuse, which feeds the kernel cost and cache models.  Index tensors are
/// materialized even in shape-only execution so this stays live.

#include <cstdint>

#include "common/flat_map.h"
#include "framework/tensor.h"

namespace mystique::fw {

/// Number of distinct rows referenced by an index tensor.  For very large
/// index sets, estimated from a strided sample (bounded cost per op call):
/// the distinct count within the sample is exact, and its ratio to the sample
/// size is scaled back to the full population.
inline int64_t
unique_indices(const Tensor& indices)
{
    const int64_t n = indices.numel();
    if (!indices.materialized() || n == 0)
        return n;
    constexpr int64_t kMaxSample = 1 << 15;
    const int64_t stride = n > kMaxSample ? n / kMaxSample : 1;
    const int64_t sampled = (n + stride - 1) / stride;
    // Per-thread table, reused across calls without reallocating.
    thread_local FlatInt64Map<bool> seen;
    seen.reset(static_cast<std::size_t>(sampled));
    const int64_t* data = indices.i64();
    for (int64_t i = 0; i < n; i += stride)
        seen.try_emplace(data[i], true);
    const auto distinct = static_cast<int64_t>(seen.size());
    const double ratio = static_cast<double>(distinct) / static_cast<double>(sampled);
    return static_cast<int64_t>(ratio * static_cast<double>(n));
}

/// Locality score in [0.05, 0.95] for @p numel lookups touching @p unique
/// distinct rows (unique_indices()): 0 ≈ every access distinct
/// (cache-hostile), 1 ≈ heavy reuse (cache-resident hot rows).
inline double
embedding_locality(int64_t numel, int64_t unique)
{
    if (numel == 0)
        return 0.5;
    const double u = static_cast<double>(unique) / static_cast<double>(numel);
    const double repeat = 1.0 - u;
    const double score = 0.08 + 0.9 * repeat;
    return score < 0.05 ? 0.05 : (score > 0.95 ? 0.95 : score);
}

} // namespace mystique::fw
