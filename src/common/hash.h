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
#include <cstring>
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
            h_ *= kPrime;
        }
    }

    /// FNV-1a over 8-byte words, for bulk tensor bytes
    /// (TensorManager::digest; seals stay byte-wise): each native-endian
    /// word is xored in, then the state is multiplied and its high half
    /// folded into its low half; the last `len % 8` bytes are mixed as
    /// mix_bytes does.  Each step is a bijection of the state for a fixed
    /// word and of the word for a fixed state, so inputs of one length that
    /// differ in one word always hash differently.  The fold is needed
    /// because a multiply carries a difference only upward: without it a
    /// bit-63 difference stays bit 63 alone, and two of them cancel.
    void mix_words(const void* data, std::size_t len)
    {
        const auto* p = static_cast<const unsigned char*>(data);
        const std::size_t n_words = len / sizeof(uint64_t);
        for (std::size_t i = 0; i < n_words; ++i) {
            uint64_t w = 0;
            std::memcpy(&w, p + i * sizeof(uint64_t), sizeof(w));
            h_ ^= w;
            h_ *= kPrime;
            h_ ^= h_ >> 32;
        }
        mix_bytes(p + n_words * sizeof(uint64_t), len % sizeof(uint64_t));
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
    static constexpr uint64_t kPrime = 0x100000001b3ull; // FNV-1a 64-bit prime

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
