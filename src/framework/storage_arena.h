#pragma once

/// @file
/// Size-bucketed caching allocator for tensor storage.
///
/// Every Session owns one arena; Storage::materialize acquires its buffer
/// here and the Storage destructor releases it back, so iteration 2..N of a
/// replay — and successive database groups on a pooled ReplayDriver worker —
/// recycle the previous iteration's buffers instead of paying malloc + memset
/// per tensor (the same traffic pattern ATen's CUDACachingAllocator erases).
///
/// Contract, mirroring caching GPU allocators:
///  - fresh blocks (heap misses) are zero-filled, matching the historical
///    `std::vector<std::byte>` behavior for a tensor's *first* use;
///  - recycled blocks keep their previous contents.  Kernels must fully
///    write their outputs; ops with read-modify-write numerics (gemm's
///    beta=0 path, embedding_bag's grad scatter, aten::zeros) initialize
///    explicitly.  Set MYST_ARENA_POISON=1 to fill recycled blocks with
///    0xFF bytes (float NaN patterns) and flush read-before-write bugs.
///
/// Blocks round up to the next power of two (min 64 B), one free list per
/// bucket.  Released blocks beyond `max_cached_bytes` are freed instead of
/// cached, bounding idle memory.  All methods are thread-safe: sessions are
/// single-threaded, but tensor handles (and thus Storage destructors) may
/// outlive their session's thread.

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace mystique::fw {

/// Counters surfaced like PlanCacheStats (benchmarks, the sweep summary).
struct StorageArenaStats {
    uint64_t hits = 0;       ///< acquires served from a bucket free list
    uint64_t misses = 0;     ///< acquires that went to the heap
    uint64_t returns = 0;    ///< releases cached into a bucket
    uint64_t heap_frees = 0; ///< releases freed because the cache was full
    int64_t bytes_outstanding = 0;      ///< bucket-rounded bytes acquired, not yet released
    int64_t peak_bytes_outstanding = 0; ///< high-water mark of bytes_outstanding
    int64_t bytes_cached = 0;           ///< bucket-rounded bytes sitting in free lists
};

class StorageArena {
  public:
    static constexpr int64_t kMinBucketBytes = 64;
    static constexpr int64_t kDefaultMaxCachedBytes = int64_t{256} << 20;

    explicit StorageArena(int64_t max_cached_bytes = kDefaultMaxCachedBytes);
    ~StorageArena();

    StorageArena(const StorageArena&) = delete;
    StorageArena& operator=(const StorageArena&) = delete;

    struct Block {
        std::byte* data = nullptr;
        int64_t capacity = 0; ///< bucket-rounded; pass back verbatim to release()
    };

    /// Returns a block with capacity >= @p nbytes (zero bytes → null block).
    /// Fresh blocks are zeroed; recycled blocks keep their prior contents.
    Block acquire(int64_t nbytes);

    /// Returns a block to its bucket, or frees it when the cache is full.
    void release(Block block) noexcept;

    StorageArenaStats stats() const;

    /// Frees every cached block (counters other than bytes_cached persist).
    void trim();

    /// The bucket-rounding rule: next power of two, at least kMinBucketBytes.
    static int64_t bucket_bytes(int64_t nbytes);

  private:
    static std::size_t bucket_index(int64_t capacity);

    mutable std::mutex mu_;
    const int64_t max_cached_bytes_;
    const bool poison_; ///< MYST_ARENA_POISON=1: 0xFF-fill recycled blocks
    StorageArenaStats stats_;
    std::array<std::vector<std::byte*>, 64> buckets_; ///< index = log2(capacity)
};

} // namespace mystique::fw
