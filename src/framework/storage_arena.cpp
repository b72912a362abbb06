#include "framework/storage_arena.h"

#include <bit>
#include <cstring>
#include <new>

#include "common/env.h"
#include "common/error.h"

namespace mystique::fw {

StorageArena::StorageArena(int64_t max_cached_bytes)
    : max_cached_bytes_(max_cached_bytes), poison_(env_flag("MYST_ARENA_POISON"))
{
    MYST_CHECK_MSG(max_cached_bytes_ >= 0, "negative arena cache cap");
}

StorageArena::~StorageArena()
{
    trim();
}

int64_t
StorageArena::bucket_bytes(int64_t nbytes)
{
    MYST_CHECK_MSG(nbytes >= 0, "negative storage size");
    if (nbytes <= kMinBucketBytes)
        return kMinBucketBytes;
    return static_cast<int64_t>(std::bit_ceil(static_cast<uint64_t>(nbytes)));
}

std::size_t
StorageArena::bucket_index(int64_t capacity)
{
    return static_cast<std::size_t>(std::bit_width(static_cast<uint64_t>(capacity)) - 1);
}

StorageArena::Block
StorageArena::acquire(int64_t nbytes)
{
    if (nbytes <= 0)
        return {};
    const int64_t capacity = bucket_bytes(nbytes);
    const std::size_t idx = bucket_index(capacity);
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<std::byte*>& bucket = buckets_[idx];
        if (!bucket.empty()) {
            Block b{bucket.back(), capacity};
            bucket.pop_back();
            ++stats_.hits;
            stats_.bytes_cached -= capacity;
            stats_.bytes_outstanding += capacity;
            if (stats_.bytes_outstanding > stats_.peak_bytes_outstanding)
                stats_.peak_bytes_outstanding = stats_.bytes_outstanding;
            if (poison_)
                std::memset(b.data, 0xFF, static_cast<std::size_t>(capacity));
            return b;
        }
        ++stats_.misses;
        stats_.bytes_outstanding += capacity;
        if (stats_.bytes_outstanding > stats_.peak_bytes_outstanding)
            stats_.peak_bytes_outstanding = stats_.bytes_outstanding;
    }
    // Heap allocation (and its zero-fill) happen outside the lock.
    return {new std::byte[static_cast<std::size_t>(capacity)](), capacity};
}

void
StorageArena::release(Block block) noexcept
{
    if (block.data == nullptr)
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.bytes_outstanding -= block.capacity;
        if (stats_.bytes_cached + block.capacity <= max_cached_bytes_) {
            buckets_[bucket_index(block.capacity)].push_back(block.data);
            stats_.bytes_cached += block.capacity;
            ++stats_.returns;
            return;
        }
        ++stats_.heap_frees;
    }
    delete[] block.data;
}

StorageArenaStats
StorageArena::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
StorageArena::trim()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& bucket : buckets_) {
        for (std::byte* p : bucket)
            delete[] p;
        bucket.clear();
    }
    stats_.bytes_cached = 0;
}

} // namespace mystique::fw
