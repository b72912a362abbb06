#pragma once

/// @file
/// FNV-1a accumulator shared by the stable fingerprints in this codebase
/// (trace operator-mix fingerprints, replay-config fingerprints, supported-set
/// fingerprints).  These hashes key caches and group equivalent traces; they
/// must be deterministic across processes, so they hash *names and values*,
/// never process-local OpIds or pointers.  CachedHash holds one such hash
/// inside the object it describes.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

namespace mystique {

/// Incremental 64-bit FNV-1a.
class Fnv1a {
  public:
    void mix_bytes(const void* data, std::size_t len)
    {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < len; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ull;
        }
    }

    void mix(std::string_view s)
    {
        mix_bytes(s.data(), s.size());
        // Length terminator so ("ab","c") and ("a","bc") differ.
        const uint64_t n = s.size();
        mix_bytes(&n, sizeof(n));
    }

    template <typename T>
    void mix_pod(const T& v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        mix_bytes(&v, sizeof(v));
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull; // FNV offset basis
};

/// FNV-1a of @p bytes as one length-terminated string: the seal of every
/// sealed JSON document (`Json::dump_sealed` — plan-store entries, packaged
/// plans and sweep-journal records).
inline uint64_t
hash_bytes(std::string_view bytes)
{
    Fnv1a h;
    h.mix(bytes);
    return h.value();
}

/// A lazily computed 64-bit hash cached inside the object it describes
/// (a trace's fingerprints).  get() computes the value once and publishes it
/// with a release store, so concurrent first calls on a shared const owner
/// are race-free: each computes the same value.  A copy keeps the cached
/// value; a move keeps it and clears the source, which lost the contents
/// the value described.
class CachedHash {
  public:
    CachedHash() = default;
    CachedHash(const CachedHash& other) { copy_from(other); }
    CachedHash(CachedHash&& other) noexcept
    {
        copy_from(other);
        other.reset();
    }
    CachedHash& operator=(const CachedHash& other)
    {
        copy_from(other);
        return *this;
    }
    CachedHash& operator=(CachedHash&& other) noexcept
    {
        if (this != &other) {
            copy_from(other);
            other.reset();
        }
        return *this;
    }

    /// The cached value, or @p compute()'s result, cached.
    template <typename Compute>
    uint64_t get(Compute&& compute) const
    {
        if (valid_.load(std::memory_order_acquire))
            return value_.load(std::memory_order_relaxed);
        const uint64_t v = compute();
        value_.store(v, std::memory_order_relaxed);
        valid_.store(true, std::memory_order_release);
        return v;
    }

    /// Drops the cached value: the next get() computes it again.
    void reset() { valid_.store(false, std::memory_order_release); }

  private:
    void copy_from(const CachedHash& other)
    {
        if (other.valid_.load(std::memory_order_acquire)) {
            value_.store(other.value_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
            valid_.store(true, std::memory_order_release);
        } else {
            valid_.store(false, std::memory_order_release);
        }
    }

    mutable std::atomic<bool> valid_{false};
    mutable std::atomic<uint64_t> value_{0};
};

} // namespace mystique
