/// Tests for the deterministic RNG and its distributions.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <new>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace mystique {
namespace {

/// A frozen copy of the Walker build and scalar draw that zipf() used when
/// each Rng owned its table, written against the public draw API.  zipf() and
/// zipf_fill() must reproduce its values and stream position bit for bit.
class ReferenceZipf {
  public:
    int64_t draw(Rng& r, int64_t n, double s)
    {
        if (s <= 0.0)
            return r.uniform_int(0, n - 1);
        if (n_ != n || s_ != s)
            build(n, s);
        const int64_t slot = r.uniform_int(0, n - 1);
        return r.uniform() < prob_[static_cast<std::size_t>(slot)]
                   ? slot
                   : alias_[static_cast<std::size_t>(slot)];
    }

  private:
    void build(int64_t n, double s)
    {
        const auto un = static_cast<std::size_t>(n);
        std::vector<double> weights(un);
        double total = 0.0;
        for (std::size_t k = 0; k < un; ++k) {
            weights[k] = 1.0 / std::pow(static_cast<double>(k + 1), s);
            total += weights[k];
        }
        prob_.assign(un, 0.0);
        alias_.assign(un, 0);
        std::vector<int64_t> small, large;
        std::vector<double> scaled(un);
        for (std::size_t k = 0; k < un; ++k) {
            scaled[k] = weights[k] / total * static_cast<double>(n);
            (scaled[k] < 1.0 ? small : large).push_back(static_cast<int64_t>(k));
        }
        while (!small.empty() && !large.empty()) {
            const auto lo = static_cast<std::size_t>(small.back());
            small.pop_back();
            const int64_t hi = large.back();
            const auto uhi = static_cast<std::size_t>(hi);
            prob_[lo] = scaled[lo];
            alias_[lo] = hi;
            scaled[uhi] -= 1.0 - scaled[lo];
            if (scaled[uhi] < 1.0) {
                large.pop_back();
                small.push_back(hi);
            }
        }
        for (int64_t k : large)
            prob_[static_cast<std::size_t>(k)] = 1.0;
        for (int64_t k : small)
            prob_[static_cast<std::size_t>(k)] = 1.0;
        n_ = n;
        s_ = s;
    }

    int64_t n_ = -1;
    double s_ = -1.0;
    std::vector<double> prob_;
    std::vector<int64_t> alias_;
};

std::vector<int64_t>
reference_draws(ReferenceZipf& ref, Rng& r, int64_t count, int64_t n, double s)
{
    std::vector<int64_t> v(static_cast<std::size_t>(count));
    for (auto& x : v)
        x = ref.draw(r, n, s);
    return v;
}

std::vector<int64_t>
fill_draws(Rng& r, int64_t count, int64_t n, double s)
{
    std::vector<int64_t> v(static_cast<std::size_t>(count));
    r.zipf_fill(v.data(), count, n, s);
    return v;
}

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next_u64() == b.next_u64() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntBounds)
{
    Rng r(9);
    for (int i = 0; i < 10000; ++i) {
        const int64_t v = r.uniform_int(-3, 5);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 5);
    }
    EXPECT_EQ(r.uniform_int(4, 4), 4);
}

TEST(Rng, UniformIntUnbiasedish)
{
    Rng r(11);
    std::map<int64_t, int> counts;
    const int n = 60000;
    for (int i = 0; i < n; ++i)
        ++counts[r.uniform_int(0, 5)];
    for (const auto& [v, c] : counts)
        EXPECT_NEAR(static_cast<double>(c) / n, 1.0 / 6.0, 0.02);
}

TEST(Rng, NormalMoments)
{
    Rng r(13);
    double sum = 0.0, sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = r.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NormalShifted)
{
    Rng r(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, ZipfInRange)
{
    Rng r(19);
    for (int i = 0; i < 5000; ++i) {
        const int64_t v = r.zipf(100, 1.1);
        EXPECT_GE(v, 0);
        EXPECT_LT(v, 100);
    }
}

TEST(Rng, ZipfSkewsTowardSmallRanks)
{
    Rng r(23);
    const int n = 50000;
    int head = 0;
    for (int i = 0; i < n; ++i)
        head += r.zipf(1000, 1.2) < 10 ? 1 : 0;
    // Under uniform the head would get ~1%; Zipf 1.2 concentrates far more.
    EXPECT_GT(static_cast<double>(head) / n, 0.25);
}

TEST(Rng, ZipfZeroExponentIsUniform)
{
    Rng r(29);
    const int n = 50000;
    int head = 0;
    for (int i = 0; i < n; ++i)
        head += r.zipf(1000, 0.0) < 10 ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(head) / n, 0.01, 0.005);
}

TEST(Rng, ZipfMatchesTheoreticalHeadMass)
{
    Rng r(31);
    const int64_t n_rows = 100;
    const double s = 1.0;
    const int draws = 100000;
    int rank0 = 0;
    for (int i = 0; i < draws; ++i)
        rank0 += r.zipf(n_rows, s) == 0 ? 1 : 0;
    double h = 0.0;
    for (int64_t k = 1; k <= n_rows; ++k)
        h += 1.0 / static_cast<double>(k);
    EXPECT_NEAR(static_cast<double>(rank0) / draws, 1.0 / h, 0.01);
}

TEST(Rng, ZipfMatchesFrozenReference)
{
    const struct {
        int64_t n;
        double s;
    } cases[] = {{1, 1.05}, {7, 0.8}, {1000, 1.05}, {24000, 1.05}, {1000, 0.0}, {1000, -0.5}};
    for (const auto& c : cases) {
        SCOPED_TRACE(testing::Message() << "n=" << c.n << " s=" << c.s);
        Rng a(101), b(101);
        ReferenceZipf ref;
        for (int i = 0; i < 3000; ++i)
            ASSERT_EQ(a.zipf(c.n, c.s), ref.draw(b, c.n, c.s)) << "draw " << i;
        EXPECT_EQ(fill_draws(a, 1000, c.n, c.s), reference_draws(ref, b, 1000, c.n, c.s));
        EXPECT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(Rng, ZipfAlternatingTablesMatchFrozenReference)
{
    // rm/paper's pattern scaled down: per-table index tensors over n rows
    // interleaved with the stacked lookup over 12 * n rows.
    Rng a(202), b(202);
    ReferenceZipf ref;
    for (int round = 0; round < 6; ++round) {
        const int64_t n = round % 2 == 0 ? 2000 : 24000;
        EXPECT_EQ(fill_draws(a, 500, n, 1.05), reference_draws(ref, b, 500, n, 1.05));
        EXPECT_EQ(a.zipf(24000 + 2000 - n, 1.05), ref.draw(b, 24000 + 2000 - n, 1.05));
        EXPECT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(Rng, ZipfFillBatchBoundariesMatchScalarDraws)
{
    Rng a(303), b(303);
    ReferenceZipf ref;
    for (const int64_t count : {0, 1, 31, 32, 33, 1000}) {
        SCOPED_TRACE(testing::Message() << "count=" << count);
        EXPECT_EQ(fill_draws(a, count, 1000, 1.05), reference_draws(ref, b, count, 1000, 1.05));
        EXPECT_EQ(a.uniform(), b.uniform());
        EXPECT_EQ(fill_draws(a, count, 7, 0.8), reference_draws(ref, b, count, 7, 0.8));
        // normal() caches its second value: an odd number of calls leaves a
        // pending value that must survive the fill on both streams.
        EXPECT_EQ(a.normal(), b.normal());
        EXPECT_EQ(fill_draws(a, count, 1000, 0.0), reference_draws(ref, b, count, 1000, 0.0));
        EXPECT_EQ(a.normal(), b.normal());
        EXPECT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(Rng, ZipfSharedTablesMatchAcrossConcurrentFirstUse)
{
    // Four threads start together on keys no other test uses, so the first
    // request of each key races: one shared key, plus one key per thread.
    // Every thread's draws must equal a single-threaded reference run.
    constexpr int kThreads = 4;
    constexpr int64_t kShared = 50021;
    constexpr int64_t kDraws = 5000;
    const double s = 1.0731;
    std::vector<std::vector<int64_t>> shared(kThreads), own(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng r(1000 + static_cast<uint64_t>(t));
            ready.fetch_add(1);
            while (ready.load() < kThreads)
                std::this_thread::yield();
            shared[t] = fill_draws(r, kDraws, kShared, s);
            own[t] = fill_draws(r, kDraws, 30011 + t, s);
        });
    }
    for (auto& th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t) {
        Rng r(1000 + static_cast<uint64_t>(t));
        ReferenceZipf ref;
        EXPECT_EQ(shared[t], reference_draws(ref, r, kDraws, kShared, s)) << "thread " << t;
        EXPECT_EQ(own[t], reference_draws(ref, r, kDraws, 30011 + t, s)) << "thread " << t;
    }
}

TEST(Rng, ZipfFailedTableBuildPropagates)
{
    // 2^62 rows cannot be allocated.  The build throws before any draw, so
    // the stream does not move; a second request fails the same way instead
    // of waiting on the failed build, and other keys still draw.
    Rng a(404), b(404);
    const int64_t rows = int64_t{1} << 62;
    EXPECT_THROW(a.zipf(rows, 1.05), std::bad_alloc);
    EXPECT_THROW(a.zipf(rows, 1.05), std::bad_alloc);
    EXPECT_EQ(a.next_u64(), b.next_u64());
    ReferenceZipf ref;
    EXPECT_EQ(fill_draws(a, 100, 1000, 1.05), reference_draws(ref, b, 100, 1000, 1.05));
}

TEST(Rng, ForkIndependence)
{
    Rng parent(37);
    Rng child = parent.fork();
    // Child stream differs from the parent's continuation.
    EXPECT_NE(child.next_u64(), parent.next_u64());
}

TEST(Rng, FillUniform)
{
    Rng r(41);
    std::vector<float> v(1000);
    r.fill_uniform(v, -1.0f, 1.0f);
    for (float x : v) {
        EXPECT_GE(x, -1.0f);
        EXPECT_LT(x, 1.0f);
    }
}

} // namespace
} // namespace mystique
