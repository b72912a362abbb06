/// @file
/// Micro-benchmark and regression gate for the parallel-sweep + storage-arena
/// subsystem.  Two measurements, printed human-readably plus one JSON summary
/// line (`micro_arena_json: {...}`) that scripts/ci.sh surfaces:
///
///   1. alloc churn — a replay-iteration-shaped allocation pattern (a mix of
///      activation/gradient-sized buffers created and dropped per iteration)
///      through arena-backed Storage vs. plain heap-backed Storage.  The
///      arena-warm iteration must beat the heap iteration by a floor: this is
///      the malloc+memset traffic that iteration 2..N of every replay no
///      longer pays.
///
///   2. parallel sweeps — ReplayDriver::replay_groups at parallelism 1 vs 4
///      (both plan-cache warm, so execution — not plan builds — is what's
///      timed) over two databases built from the same recorded traces.  In
///      both, every group of both sweeps must finish ok and the results must
///      be bit-identical.
///       - The full database (4 workloads x 2 presets + a distributed rm: 8
///         groups) must also recycle arena buffers.  Its K=4 ratio is printed,
///         not gated: the driver stripes whole groups over its workers, and rm
///         at the paper preset is ~96% of this sweep, so no K can beat ~1.04x.
///       - The timed database (every trace above but rm/paper, plus the tiny
///         param_linear, asr and resnet at world size 2: 10 groups of a few ms
///         each) must sweep >=1.15x faster at K=4 than at K=1.  After 2 s of
///         untimed K=4 sweeps, the speedup is a median over 15 rounds of one
///         round's K=1 sweep time over its K=4 sweep time.  A round runs the
///         two sweeps back to back, K=1 first in even rounds and K=4 first in
///         odd ones, so a shift in the throughput a shared host delivers hits
///         both sides of a round alike, and the median drops the rounds a
///         stall hit.  On a single-core host the floor degrades to
///         parity-with-slack, since K threads on one core cannot beat one
///         thread doing the same work.
///
/// Exits nonzero when a check fails.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/json.h"
#include "core/plan_cache.h"
#include "core/replay_driver.h"
#include "et/trace_db.h"
#include "framework/storage_arena.h"
#include "framework/tensor.h"

namespace {

using namespace mystique;

using bench::now_us;

constexpr std::size_t kParallelism = 4;
constexpr double kSweepFloor = 1.15;  // timed database: K=4 vs K=1 speedup
constexpr double kParitySlack = 1.35; // single core: K=4 at most this much slower
constexpr int kTimedRounds = 15;      // timed database: K=1/K=4 sweep pairs
/// Untimed K=4 sweeps of the timed database before its rounds.  A shared VM
/// host can run the VM's vCPUs one at a time until it has seen ~1.5 s of
/// parallel load (on a 4-vCPU VM, 4 threads of pure compute got one thread's
/// throughput for their first ~1.5 s after an idle spell, then 2-4x); a fleet
/// sweep runs far longer than that, so the rounds time the state after it.
constexpr double kParallelWarmupUs = 2e6;

/// One replay-iteration-shaped churn: create + touch + drop a buffer mix.
void
churn_iteration(const std::shared_ptr<fw::StorageArena>& arena)
{
    // Activation / gradient / index-tensor sizes from the tiny-preset
    // workloads (bytes); what one replayed iteration allocates and frees.
    static const int64_t kSizes[] = {512 * 1024, 256 * 1024, 128 * 1024, 64 * 1024,
                                     64 * 1024,  16 * 1024,  16 * 1024,  4 * 1024,
                                     4 * 1024,   1024};
    for (const int64_t bytes : kSizes) {
        fw::Storage s(bytes, /*materialize_now=*/true, arena);
        // Touch like a kernel writing its output row 0.
        s.data()[0] = std::byte{1};
        s.data()[static_cast<std::size_t>(bytes - 1)] = std::byte{2};
    }
}

/// One database's K=1 and K=kParallelism sweeps: the last result of each
/// side and every sweep's wall time, index r holding round r of both sides.
struct SweepPair {
    core::DatabaseReplayResult seq, par;
    std::vector<double> seq_us, par_us;

    /// Median over rounds of the round's K=1 time over its K=kParallelism time.
    double speedup() const
    {
        std::vector<double> ratios;
        for (std::size_t r = 0; r < seq_us.size(); ++r)
            ratios.push_back(par_us[r] > 0.0 ? seq_us[r] / par_us[r] : 1e9);
        return percentile(std::move(ratios), 50);
    }
};

/// Warms a K=1 and a K=kParallelism driver on @p db (plan caches, worker
/// sessions and arenas), keeps the K=kParallelism one sweeping for
/// @p par_warmup_us more, then times @p rounds steady-state sweeps per
/// driver: execution, not plan builds.  Even rounds run K=1 first, odd
/// rounds K=kParallelism first.
SweepPair
sweep_pair(const et::TraceDatabase& db, const core::ReplayConfig& cfg, int rounds,
           double par_warmup_us)
{
    core::PlanCache cache_seq(16), cache_par(16);
    core::ReplayDriver seq(cfg, &cache_seq, 1);
    core::ReplayDriver par(cfg, &cache_par, kParallelism);
    (void)seq.replay_groups(db);
    const double w0 = now_us();
    do {
        (void)par.replay_groups(db);
    } while (now_us() - w0 < par_warmup_us);

    SweepPair p;
    const auto timed = [&db](core::ReplayDriver& d, core::DatabaseReplayResult& r,
                             std::vector<double>& us) {
        const double t0 = now_us();
        r = d.replay_groups(db);
        us.push_back(now_us() - t0);
    };
    for (int r = 0; r < rounds; ++r) {
        if (r % 2 == 0) {
            timed(seq, p.seq, p.seq_us);
            timed(par, p.par, p.par_us);
        } else {
            timed(par, p.par, p.par_us);
            timed(seq, p.seq, p.seq_us);
        }
    }
    return p;
}

void
print_sweeps(const char* db_name, const SweepPair& p, const char* ratio_note)
{
    std::printf("  %-5s database sweep, parallelism=1   %12.1f us   (%zu groups; median of %zu "
                "rounds)\n",
                db_name, percentile(p.seq_us, 50), p.seq.groups.size(), p.seq_us.size());
    std::printf("  %-5s database sweep, parallelism=%zu   %12.1f us   (%.2fx median per round, "
                "%s)\n",
                db_name, kParallelism, percentile(p.par_us, 50), p.speedup(), ratio_note);
    std::printf("  %-5s weighted mean iter: %.2f us (seq) vs %.2f us (par)\n", db_name,
                p.seq.weighted_mean_iter_us, p.par.weighted_mean_iter_us);
}

/// Every group of both sweeps finished ok, and the sweeps agree bit for bit
/// (population-weighted mean and each group's mean iteration time).  Prints
/// a FAIL line per violation.
bool
sweeps_agree(const char* db_name, const SweepPair& p)
{
    bool ok = true;
    for (const core::DatabaseReplayResult* r : {&p.seq, &p.par}) {
        if (r->groups_ok == r->groups.size())
            continue;
        std::printf("FAIL: %s database, parallelism=%d: %zu of %zu groups ok\n", db_name,
                    r == &p.seq ? 1 : static_cast<int>(kParallelism), r->groups_ok,
                    r->groups.size());
        for (std::size_t i = 0; i < r->groups.size(); ++i) {
            const core::GroupReplayResult& g = r->groups[i];
            if (g.status != core::GroupStatus::kOk)
                std::printf("  group %zu %s: %s\n", i, core::to_string(g.status),
                            g.error.c_str());
        }
        ok = false;
    }
    if (p.seq.weighted_mean_iter_us != p.par.weighted_mean_iter_us ||
        p.seq.groups.size() != p.par.groups.size()) {
        std::printf("FAIL: %s database: parallel sweep diverged from sequential "
                    "(%.6f vs %.6f us over %zu vs %zu groups)\n",
                    db_name, p.seq.weighted_mean_iter_us, p.par.weighted_mean_iter_us,
                    p.seq.groups.size(), p.par.groups.size());
        return false;
    }
    for (std::size_t i = 0; i < p.seq.groups.size(); ++i) {
        if (p.seq.groups[i].result.mean_iter_us != p.par.groups[i].result.mean_iter_us) {
            std::printf("FAIL: %s database: group %zu diverged under parallelism\n", db_name,
                        i);
            ok = false;
        }
    }
    return ok;
}

} // namespace

int
main()
{
    bench::print_header("micro_arena: storage recycling & parallel sweeps");

    // ---- 1. arena-warm vs heap alloc churn --------------------------------
    constexpr int kChurnIters = 400;
    constexpr double kArenaFloor = 2.0; // arena-warm must be >= 2x cheaper

    auto arena = std::make_shared<fw::StorageArena>();
    churn_iteration(arena); // warm the buckets (iteration 1 pays the misses)

    double heap_us = 1e300, arena_us = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
        const double h0 = now_us();
        for (int i = 0; i < kChurnIters; ++i)
            churn_iteration(nullptr); // heap path: malloc + zero-fill each time
        const double h = (now_us() - h0) / kChurnIters;
        if (h < heap_us)
            heap_us = h;

        const double a0 = now_us();
        for (int i = 0; i < kChurnIters; ++i)
            churn_iteration(arena); // arena path: every acquire is a bucket hit
        const double a = (now_us() - a0) / kChurnIters;
        if (a < arena_us)
            arena_us = a;
    }
    const fw::StorageArenaStats astats = arena->stats();
    const double churn_speedup = arena_us > 0.0 ? heap_us / arena_us : 1e9;

    std::printf("  %-38s %10.2f us/iter\n", "alloc churn, heap-backed", heap_us);
    std::printf("  %-38s %10.2f us/iter   (%.1fx faster)\n", "alloc churn, arena-warm",
                arena_us, churn_speedup);
    std::printf("  arena: hits=%llu misses=%llu cached=%lld B outstanding=%lld B\n",
                static_cast<unsigned long long>(astats.hits),
                static_cast<unsigned long long>(astats.misses),
                static_cast<long long>(astats.bytes_cached),
                static_cast<long long>(astats.bytes_outstanding));

    // ---- 2. parallel database sweeps --------------------------------------
    // Full database: 4 workloads x 2 presets.  resnet tiny/paper share an op
    // mix (only shapes differ), so a distributed rm trace — its comm ops —
    // makes the eighth distinct group.  Timed database: the same traces
    // without rm/paper, plus three more distributed traces.
    wl::RunConfig run_cfg;
    run_cfg.mode = fw::ExecMode::kShapeOnly;
    run_cfg.warmup_iterations = 1;
    run_cfg.iterations = 2;
    const auto record = [&run_cfg](const char* name, wl::Preset preset, int world_size) {
        wl::WorkloadOptions opts;
        opts.preset = preset;
        wl::RunConfig cfg = run_cfg;
        cfg.world_size = world_size;
        return wl::run_original(name, opts, cfg).rank0().trace;
    };
    et::TraceDatabase full_db, timed_db;
    for (const char* name : {"param_linear", "rm", "asr", "resnet"}) {
        for (const wl::Preset preset : {wl::Preset::kTiny, wl::Preset::kPaper}) {
            et::ExecutionTrace trace = record(name, preset, 1);
            if (std::string(name) != "rm" || preset != wl::Preset::kPaper)
                timed_db.add(trace);
            full_db.add(std::move(trace));
        }
    }
    {
        et::ExecutionTrace trace = record("rm", wl::Preset::kTiny, 2);
        timed_db.add(trace);
        full_db.add(std::move(trace));
    }
    for (const char* name : {"param_linear", "asr", "resnet"})
        timed_db.add(record(name, wl::Preset::kTiny, 2));

    core::ReplayConfig cfg = bench::bench_replay_config();
    cfg.iterations = 4;

    const SweepPair full = sweep_pair(full_db, cfg, 1, 0.0);
    const SweepPair timed = sweep_pair(timed_db, cfg, kTimedRounds, kParallelWarmupUs);
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

    print_sweeps("full", full, "not gated");
    print_sweeps("timed", timed, "gated");

    Json j = Json::object();
    j.set("churn_heap_us", Json(heap_us));
    j.set("churn_arena_us", Json(arena_us));
    j.set("churn_speedup", Json(churn_speedup));
    j.set("sweep_seq_us", Json(percentile(timed.seq_us, 50)));
    j.set("sweep_par_us", Json(percentile(timed.par_us, 50)));
    j.set("sweep_speedup", Json(timed.speedup()));
    j.set("groups", Json(static_cast<int64_t>(timed.seq.groups.size())));
    j.set("sweep_rounds", Json(static_cast<int64_t>(kTimedRounds)));
    j.set("full_sweep_seq_us", Json(percentile(full.seq_us, 50)));
    j.set("full_sweep_par_us", Json(percentile(full.par_us, 50)));
    j.set("full_sweep_speedup", Json(full.speedup()));
    j.set("full_groups", Json(static_cast<int64_t>(full.seq.groups.size())));
    j.set("cores", Json(static_cast<int64_t>(cores)));
    j.set("arena_hits", Json(static_cast<int64_t>(full.par.arena.hits)));
    std::printf("micro_arena_json: %s\n", j.dump().c_str());

    // ---- gates ------------------------------------------------------------
    // MYST_ARENA_POISON=1 memsets every recycled block (read-before-write
    // sentinel), which erases the recycling advantage by design — keep the
    // correctness gates but skip the churn perf floor under poison.
    const char* poison_env = std::getenv("MYST_ARENA_POISON");
    const bool poisoned = poison_env != nullptr && poison_env[0] == '1';
    bool ok = true;
    if (poisoned) {
        std::printf("  (MYST_ARENA_POISON=1: churn perf floor skipped)\n");
    } else if (churn_speedup < kArenaFloor) {
        std::printf("FAIL: arena-warm churn (%.2f us) not >=%.1fx cheaper than heap "
                    "(%.2f us)\n",
                    arena_us, kArenaFloor, heap_us);
        ok = false;
    }
    if (astats.misses > 16 || astats.hits < static_cast<uint64_t>(kChurnIters)) {
        std::printf("FAIL: warm churn was not served from the buckets "
                    "(hits=%llu misses=%llu)\n",
                    static_cast<unsigned long long>(astats.hits),
                    static_cast<unsigned long long>(astats.misses));
        ok = false;
    }
    if (full.seq.groups.size() < 8) {
        std::printf("FAIL: full database produced %zu groups, need >= 8\n",
                    full.seq.groups.size());
        ok = false;
    }
    ok = sweeps_agree("full", full) && ok;
    ok = sweeps_agree("timed", timed) && ok;
    if (full.par.arena.hits == 0) {
        std::printf("FAIL: warm parallel sweep recycled no buffers\n");
        ok = false;
    }
    // Wall-clock: demand a real speedup only when the host can provide one.
    // K threads on a single core cannot beat one thread doing identical work;
    // there we only require near-parity (scheduling overhead bounded).
    if (cores >= 2) {
        if (timed.speedup() < kSweepFloor) {
            std::printf("FAIL: parallelism=%zu sweep not >=%.2fx faster than sequential on "
                        "%u cores (%.2fx, median over %d rounds)\n",
                        kParallelism, kSweepFloor, cores, timed.speedup(), kTimedRounds);
            ok = false;
        }
    } else if (timed.speedup() * kParitySlack < 1.0) {
        std::printf("FAIL: parallelism=%zu sweep more than %.2fx slower than sequential on a "
                    "single core (%.2fx, median over %d rounds)\n",
                    kParallelism, kParitySlack, timed.speedup(), kTimedRounds);
        ok = false;
    }
    if (!ok)
        return 1;
    std::printf("OK: arena-warm iterations skip heap traffic (>=%.1fx) and parallel "
                "sweeps match sequential results%s\n",
                kArenaFloor,
                cores >= 2 ? " with real wall-clock speedup" : " (single core: parity)");
    return 0;
}
