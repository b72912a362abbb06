#pragma once

/// @file
/// Deterministic random number generation.
///
/// All stochastic behaviour in the library (tensor initialization, kernel
/// duration jitter, workload input generation) flows through Rng so runs are
/// reproducible from a single seed.  The engine is xoshiro256** seeded via
/// splitmix64, both public-domain algorithms by Blackman & Vigna.

#include <cstdint>
#include <memory>
#include <vector>

namespace mystique {

/// Immutable Walker alias table for Zipf(n, s), shared process-wide: each
/// (n, s) is built once and handed to every Rng that samples it.
struct ZipfTable;

/// Deterministic pseudo-random generator with distribution helpers.
class Rng {
  public:
    /// Seeds the stream; equal seeds produce equal sequences.
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /// Next raw 64-bit value.
    uint64_t next_u64();

    /// Uniform double in [0, 1).
    double uniform();

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi);

    /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
    int64_t uniform_int(int64_t lo, int64_t hi);

    /// Standard normal via Box–Muller.
    double normal();

    /// Normal with the given mean and standard deviation.
    double normal(double mean, double stddev);

    /// Zipf-distributed integer in [0, n) with exponent @p s (s=0 → uniform).
    /// Used for embedding-lookup index generation, where index skew drives
    /// cache locality (the paper's §4.4 "special case").
    int64_t zipf(int64_t n, double s);

    /// Writes @p count Zipf(n, s) draws to @p out: the same values, and the
    /// same stream position afterwards, as @p count calls to zipf().  Draws
    /// go in batches whose alias-table entries are prefetched together, so
    /// the table's cache misses overlap.
    void zipf_fill(int64_t* out, int64_t count, int64_t n, double s);

    /// Fills @p out with iid uniform values in [lo, hi).
    void fill_uniform(std::vector<float>& out, float lo, float hi);

    /// Derives an independent child stream (for per-rank / per-run use).
    Rng fork();

  private:
    uint64_t state_[4];
    bool have_cached_normal_ = false;
    double cached_normal_ = 0.0;

    // The last table this stream sampled.  Tables come from a process-wide
    // cache, so drawing millions of indices is O(1) each after one O(n)
    // build per (n, s) per process; holding the pointer keeps the table
    // alive after the cache evicts it.
    std::shared_ptr<const ZipfTable> zipf_;
};

} // namespace mystique
