#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <future>
#include <map>
#include <mutex>
#include <utility>

#include "common/error.h"

namespace mystique {

/// Walker alias table over ranks [0, n): a draw picks a slot uniformly, keeps
/// it with probability entries[slot].prob and takes entries[slot].alias
/// otherwise.
struct ZipfTable {
    struct Entry {
        double prob;
        int64_t alias;
    };
    int64_t n = 0;
    double s = 0.0;
    std::unique_ptr<Entry[]> entries;
};

namespace {

uint64_t
splitmix64(uint64_t& x)
{
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/// Builds the alias table with Walker's O(n) method.  Every prob and alias
/// value, and so every draw, depends on this arithmetic and its order bit for
/// bit.  The build allocates nothing but the table: the weights are scaled in
/// place, and the small and large worklists are LIFO stacks linked through
/// the alias fields.  A row's alias field holds its stack link until the row
/// is popped from small and takes its real alias; rows left on either stack
/// at the end get prob 1 and alias 0.
std::shared_ptr<const ZipfTable>
build_zipf_table(int64_t n, double s)
{
    auto table = std::make_shared<ZipfTable>();
    table->n = n;
    table->s = s;
    const auto un = static_cast<std::size_t>(n);
    table->entries = std::make_unique_for_overwrite<ZipfTable::Entry[]>(un);
    ZipfTable::Entry* e = table->entries.get();
    double total = 0.0;
    for (std::size_t k = 0; k < un; ++k) {
        e[k].prob = 1.0 / std::pow(static_cast<double>(k + 1), s);
        total += e[k].prob;
    }
    constexpr int64_t kEnd = -1;
    int64_t small = kEnd, large = kEnd; // stack tops
    for (std::size_t k = 0; k < un; ++k) {
        e[k].prob = e[k].prob / total * static_cast<double>(n);
        int64_t& top = e[k].prob < 1.0 ? small : large;
        e[k].alias = top;
        top = static_cast<int64_t>(k);
    }
    while (small != kEnd && large != kEnd) {
        const int64_t lo = small;
        const int64_t hi = large;
        small = e[lo].alias;
        e[lo].alias = hi;
        e[hi].prob -= 1.0 - e[lo].prob;
        if (e[hi].prob < 1.0) {
            large = e[hi].alias;
            e[hi].alias = small;
            small = hi;
        }
    }
    for (int64_t k : {small, large}) {
        while (k != kEnd) {
            const int64_t next = e[k].alias;
            e[k] = {1.0, 0};
            k = next;
        }
    }
    return table;
}

/// The process-wide table cache, keyed on n and the bit pattern of s.  Each
/// key is built once: the first requester builds outside the lock behind a
/// shared future that later requesters wait on, so a build never blocks
/// lookups of other keys.  A failed build leaves no entry and rethrows to
/// every waiter.  Built tables are kept up to kCapBytes, evicting the least
/// recently used; eviction drops only the cache's reference, and a table
/// larger than the cap is returned without being kept.
class ZipfTableCache {
  public:
    /// 512 MiB holds the production RM tables (24M and 2M rows at 16 bytes a
    /// row) together.
    static constexpr std::size_t kCapBytes = std::size_t{512} << 20;

    static ZipfTableCache& instance()
    {
        static ZipfTableCache cache;
        return cache;
    }

    std::shared_ptr<const ZipfTable> get(int64_t n, double s)
    {
        const Key key{n, std::bit_cast<uint64_t>(s)};
        std::promise<std::shared_ptr<const ZipfTable>> promise;
        std::shared_future<std::shared_ptr<const ZipfTable>> future;
        {
            std::lock_guard<std::mutex> lock(mu_);
            Slot& slot = slots_[key];
            slot.last_used = ++tick_;
            if (slot.table.valid())
                future = slot.table; // built, or in flight: wait below
            else
                slot.table = promise.get_future().share();
        }
        if (future.valid())
            return future.get();

        std::shared_ptr<const ZipfTable> table;
        try {
            table = build_zipf_table(n, s);
        } catch (...) {
            promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mu_);
            slots_.erase(key);
            throw;
        }
        promise.set_value(table);
        const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(ZipfTable::Entry);
        std::lock_guard<std::mutex> lock(mu_);
        if (bytes > kCapBytes) {
            slots_.erase(key);
            return table;
        }
        slots_[key].bytes = bytes;
        bytes_ += bytes;
        while (bytes_ > kCapBytes) {
            // Least recently used among the other built tables; in-flight
            // slots (bytes == 0) are never evicted.
            auto victim = slots_.end();
            for (auto it = slots_.begin(); it != slots_.end(); ++it) {
                if (it->first != key && it->second.bytes > 0 &&
                    (victim == slots_.end() || it->second.last_used < victim->second.last_used))
                    victim = it;
            }
            bytes_ -= victim->second.bytes;
            slots_.erase(victim);
        }
        return table;
    }

  private:
    using Key = std::pair<int64_t, uint64_t>; // n, bit pattern of s
    struct Slot {
        std::shared_future<std::shared_ptr<const ZipfTable>> table;
        std::size_t bytes = 0; // 0 while the build is in flight
        uint64_t last_used = 0;
    };

    std::mutex mu_;
    std::map<Key, Slot> slots_;
    std::size_t bytes_ = 0;
    uint64_t tick_ = 0;
};

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t s = seed;
    for (auto& w : state_)
        w = splitmix64(s);
}

uint64_t
Rng::next_u64()
{
    const uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits → uniform in [0,1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

int64_t
Rng::uniform_int(int64_t lo, int64_t hi)
{
    MYST_CHECK_MSG(lo <= hi, "uniform_int: lo " << lo << " > hi " << hi);
    const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
    if (range == 0) // full 64-bit range
        return static_cast<int64_t>(next_u64());
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
    uint64_t v = next_u64();
    while (v >= limit)
        v = next_u64();
    return lo + static_cast<int64_t>(v % range);
}

double
Rng::normal()
{
    if (have_cached_normal_) {
        have_cached_normal_ = false;
        return cached_normal_;
    }
    double u1 = uniform();
    while (u1 <= 1e-300)
        u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_normal_ = r * std::sin(theta);
    have_cached_normal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

int64_t
Rng::zipf(int64_t n, double s)
{
    int64_t v = 0;
    zipf_fill(&v, 1, n, s);
    return v;
}

void
Rng::zipf_fill(int64_t* out, int64_t count, int64_t n, double s)
{
    if (count <= 0)
        return;
    MYST_CHECK(n > 0);
    if (s <= 0.0) {
        for (int64_t i = 0; i < count; ++i)
            out[i] = uniform_int(0, n - 1);
        return;
    }
    if (zipf_ == nullptr || zipf_->n != n ||
        std::bit_cast<uint64_t>(zipf_->s) != std::bit_cast<uint64_t>(s))
        zipf_ = ZipfTableCache::instance().get(n, s);
    const ZipfTable::Entry* entries = zipf_->entries.get();
    // Each batch draws its (slot, u) pairs in stream order and prefetches
    // every slot's entry before resolving any of them.
    constexpr int64_t kBatch = 32;
    int64_t slot[kBatch];
    double u[kBatch];
    for (int64_t done = 0; done < count; done += kBatch) {
        const int64_t m = std::min(kBatch, count - done);
        for (int64_t j = 0; j < m; ++j) {
            slot[j] = uniform_int(0, n - 1);
            u[j] = uniform();
            __builtin_prefetch(&entries[slot[j]]);
        }
        for (int64_t j = 0; j < m; ++j) {
            const ZipfTable::Entry& e = entries[slot[j]];
            out[done + j] = u[j] < e.prob ? slot[j] : e.alias;
        }
    }
}

void
Rng::fill_uniform(std::vector<float>& out, float lo, float hi)
{
    for (auto& v : out)
        v = static_cast<float>(uniform(lo, hi));
}

Rng
Rng::fork()
{
    return Rng(next_u64());
}

} // namespace mystique
