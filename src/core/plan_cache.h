#pragma once

/// @file
/// Process-wide, fingerprint-keyed cache of compiled replay plans.
///
/// Production trace databases group equivalent ETs by operator-mix
/// fingerprint and replay representatives by population weight (§8.2); the
/// cache is what makes the N-th replay of an equivalent trace skip the whole
/// build phase (selection + coverage + reconstruction + stream assignment).
/// `Replayer::run_distributed`, `ReplayDriver`, and `generate_benchmark`
/// fetch through it, so N ranks replaying equivalent traces share one plan.
///
/// ## Two tiers
///
/// The in-memory tier above is process-local.  When `MYST_PLAN_CACHE_DIR`
/// is set as the cache is constructed (or set_store_dir() names a
/// directory), a *disk tier* (core/plan_store.h) extends reuse across
/// process restarts: a memory miss first consults the content-addressed
/// on-disk store — one atomically written JSON entry per full PlanKey — and
/// only builds when the disk misses too; fresh builds are written back
/// asynchronously on the shared background ThreadPool.  A repeated sweep of a stable database in a new
/// process therefore performs **zero plan builds**: every group is a disk
/// hit (one parse) instead of a selection+reconstruction pass.  Invalid disk
/// entries (corrupt, truncated, stale schema, kind-drifted) are quarantined
/// to `.bad` and rebuilt — disk rot can cost a build, never a wrong plan.
///
/// Concurrency: lookups are mutex-guarded, but plan *builds* (and disk
/// loads) happen outside the lock behind a per-key shared_future — the first
/// requester loads-or-builds, concurrent requesters of the same key wait on
/// the future (counted as hits), and requesters of different keys proceed in
/// parallel.  Build-once also means write-once: a concurrent N-thread fetch
/// of one key issues exactly one disk writeback.  A build that throws erases
/// its entry so later requests retry, and rethrows to every waiter.
///
/// Lifecycle: entries are LRU-evicted beyond `capacity` (memory tier only —
/// disk entries are never evicted by this process).  Eviction only drops
/// the cache's reference; executors holding `shared_ptr<const ReplayPlan>`
/// keep replaying safely.

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/replay_plan.h"

namespace mystique::core {

class PlanStore;

/// Hit/miss accounting, exposed for benchmarks and tests.
///
/// `misses` counts memory-tier misses; each one was resolved either from
/// disk (`disk_hits`) or by a full build (`builds`), so
/// `misses == disk_hits + builds` always holds.  `disk_misses` counts the
/// disk consultations that found no usable entry (absent or quarantined) —
/// zero when no disk tier is configured.  `writebacks` counts *completed*
/// asynchronous disk writebacks; call `PlanCache::flush_writebacks()` before
/// reading it if you need the final value.
struct PlanCacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t disk_hits = 0;
    uint64_t disk_misses = 0;
    uint64_t builds = 0;
    uint64_t writebacks = 0;
    uint64_t evictions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;

    /// Optimizer counters, accumulated over *builds only* — warm hits (both
    /// tiers) replay pre-optimized plans, so a fully warm sweep shows zero
    /// re-optimization alongside zero builds.
    uint64_t opt_ops_fused = 0;
    uint64_t opt_ops_eliminated = 0;
    uint64_t opt_chains_formed = 0;
    double opt_time_us = 0.0;
};

class PlanCache {
  public:
    static constexpr std::size_t kDefaultCapacity = 64;

    /// Reads `MYST_PLAN_CACHE_DIR` once: when set, it names the disk tier's
    /// directory; unset or empty, the cache is memory-only.
    explicit PlanCache(std::size_t capacity = kDefaultCapacity);

    /// Waits for outstanding disk writebacks (plans already built are never
    /// lost to process exit mid-write; partial files are unpublishable by
    /// construction anyway — see core/plan_store.h).
    ~PlanCache();

    /// The process-wide instance used by run_distributed / ReplayDriver,
    /// constructed on first use.
    static PlanCache& instance();

    /// Returns the plan for (trace, prof, cfg): from memory, else from the
    /// disk tier (when configured), else built.  Equivalent traces (equal
    /// fingerprints) under the same supported set and plan-shaping config
    /// share one plan.  This spelling deep-copies the trace into the plan
    /// on a miss (the plan must outlive the caller's reference).
    std::shared_ptr<const ReplayPlan> get_or_build(const et::ExecutionTrace& trace,
                                                   const prof::ProfilerTrace* prof,
                                                   const ReplayConfig& cfg);

    /// Zero-copy spelling for callers that hold the trace in shared
    /// ownership (TraceDatabase, package import): on a miss the built or
    /// disk-restored plan *shares* @p trace instead of deep-copying it —
    /// the disk-hit path becomes one parse + one IR compile per distinct
    /// text, with no O(trace) copy.
    std::shared_ptr<const ReplayPlan>
    get_or_build(std::shared_ptr<const et::ExecutionTrace> trace,
                 const prof::ProfilerTrace* prof, const ReplayConfig& cfg);

    /// Peeks the memory tier without building (and without stats side
    /// effects); nullptr on miss or while the key's build is still in flight.
    std::shared_ptr<const ReplayPlan> lookup(const PlanKey& key) const;

    /// Seeds the cache with an already-built plan under its own key — the
    /// package-import path: a plan deserialized from a package's
    /// replay_plan.json (ReplayPlan::from_json) makes every later
    /// get_or_build of the packaged trace a pure hit, so importing a shared
    /// benchmark never re-runs the build phase.  Returns false (and keeps
    /// the existing entry) when the key is already present.  Counted as
    /// neither hit nor miss; never written to the disk tier.  Every plan
    /// carries its full key, so any plan may be inserted.
    bool insert(std::shared_ptr<const ReplayPlan> plan);

    PlanCacheStats stats() const;

    /// Drops every completed entry and zeroes the counters (tests).  The
    /// disk tier is untouched: a clear()ed cache refills from disk, which is
    /// exactly the cross-process scenario it simulates.
    void clear();

    /// Replaces the disk tier the constructor read from
    /// `MYST_PLAN_CACHE_DIR`: @p dir is the tier's directory, and "" turns
    /// the tier off.
    void set_store_dir(const std::string& dir);

    /// Blocks until every asynchronous disk writeback issued so far has
    /// completed (successfully or not), so `stats().writebacks` is final and
    /// another process can be pointed at the store directory.
    void flush_writebacks();

  private:
    /// Both get_or_build spellings: @p shared is null when the caller holds
    /// @p trace only by reference, and a miss then copies it once.
    std::shared_ptr<const ReplayPlan>
    resolve(const et::ExecutionTrace& trace, std::shared_ptr<const et::ExecutionTrace> shared,
            const prof::ProfilerTrace* prof, const ReplayConfig& cfg);

    struct Entry {
        std::shared_future<std::shared_ptr<const ReplayPlan>> plan;
        bool ready = false;    ///< set once the build completed successfully
        uint64_t last_used = 0;
    };

    void evict_excess_locked();
    void submit_writeback(std::shared_ptr<PlanStore> store,
                          std::shared_ptr<const ReplayPlan> plan);

    mutable std::mutex mu_;
    std::size_t capacity_;
    uint64_t tick_ = 0;
    PlanCacheStats stats_; ///< the counters; stats() fills in size and capacity
    std::shared_ptr<PlanStore> store_; ///< the disk tier; null = off
    std::vector<std::future<void>> writeback_futures_;
    std::unordered_map<PlanKey, Entry, PlanKeyHash> entries_;
};

} // namespace mystique::core
