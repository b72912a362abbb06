#pragma once

/// @file
/// FlatInt64Map: a hash map from int64 keys to small values, held in one
/// flat bucket array.
///
/// Open addressing with linear probing over a power-of-two bucket array,
/// Fibonacci-hashed and kept at load <= 1/2 by doubling.  A per-bucket flag
/// marks occupancy, so every int64 value is a valid key, and no node is
/// allocated per key — the reason to use it instead of std::unordered_map on
/// per-element paths (the embedding kernels' distinct count, the plan
/// optimizer's consumer counts and def-use index).  There is no erase;
/// reset() empties the map and keeps its allocation.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mystique {

template <typename V>
class FlatInt64Map {
  public:
    FlatInt64Map() = default;

    /// Empties the map and sizes it for @p expected keys without regrowth.
    /// Reuses the allocation, so its cost follows @p expected, not the size
    /// the map had before.
    void reset(std::size_t expected)
    {
        const std::size_t capacity =
            std::bit_ceil(std::max<std::size_t>(2 * expected, kMinBuckets));
        buckets_.assign(capacity, Bucket{});
        shift_ = 64 - std::countr_zero(capacity);
        size_ = 0;
    }

    /// Value of @p key, inserting @p value when the key is absent; second is
    /// true when it was inserted.  The pointer is valid until the next
    /// insertion.
    std::pair<V*, bool> try_emplace(int64_t key, V value)
    {
        if (2 * (size_ + 1) > buckets_.size())
            grow();
        const std::size_t mask = buckets_.size() - 1;
        for (std::size_t b = bucket(key);; b = (b + 1) & mask) {
            Bucket& e = buckets_[b];
            if (!e.used) {
                e = Bucket{key, std::move(value), true};
                ++size_;
                return {&e.value, true};
            }
            if (e.key == key)
                return {&e.value, false};
        }
    }

    V& operator[](int64_t key) { return *try_emplace(key, V{}).first; }

    /// Value of @p key, or nullptr when it is absent.
    const V* find(int64_t key) const
    {
        if (buckets_.empty())
            return nullptr;
        const std::size_t mask = buckets_.size() - 1;
        for (std::size_t b = bucket(key); buckets_[b].used; b = (b + 1) & mask) {
            if (buckets_[b].key == key)
                return &buckets_[b].value;
        }
        return nullptr;
    }

    std::size_t size() const { return size_; }

  private:
    struct Bucket {
        int64_t key = 0;
        V value{};
        bool used = false;
    };
    static constexpr std::size_t kMinBuckets = 16;

    std::size_t bucket(int64_t key) const
    {
        return static_cast<std::size_t>(
            (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    void grow()
    {
        std::vector<Bucket> old = std::move(buckets_);
        reset(old.size());
        const std::size_t mask = buckets_.size() - 1;
        for (Bucket& e : old) {
            if (!e.used)
                continue;
            std::size_t b = bucket(e.key);
            while (buckets_[b].used)
                b = (b + 1) & mask;
            buckets_[b] = std::move(e);
            ++size_;
        }
    }

    std::vector<Bucket> buckets_;
    int shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace mystique
