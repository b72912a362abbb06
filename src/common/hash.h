#pragma once

/// @file
/// FNV-1a accumulator shared by the stable fingerprints in this codebase
/// (trace operator-mix fingerprints, replay-config fingerprints, supported-set
/// fingerprints).  These hashes key caches and group equivalent traces; they
/// must be deterministic across processes, so they hash *names and values*,
/// never process-local OpIds or pointers.

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

/// FNV-1a of @p bytes as one length-terminated string: the content seal of
/// plan-store entries and packaged plans (`plan_hash`) and of sweep-journal
/// records.
inline uint64_t
hash_bytes(std::string_view bytes)
{
    Fnv1a h;
    h.mix(bytes);
    return h.value();
}

} // namespace mystique
