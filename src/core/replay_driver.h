#pragma once

/// @file
/// Batched multi-trace replay over a trace database (§8.2).
///
/// The production pipeline of Figure 3 at fleet scale: the ET analyzer groups
/// a database's traces by operator-mix fingerprint; the driver then replays
/// one *representative* per group — fetching each group's plan through the
/// PlanCache, so equivalent groups across sweeps (and repeated sweeps of the
/// same database) never rebuild — and weights each group's replayed time by
/// its population weight.  This is the "generate once, reuse across the
/// population" amortization: session setup, operator registration and plan
/// builds are paid once per distinct group, not once per trace.
///
/// ## Scaling a sweep
///
/// The driver owns a pool of `parallelism` workers, each a Session +
/// CommFabric pair constructed once and reused across groups (and across
/// sweeps).  Groups are striped deterministically across workers (group i →
/// worker i % K); K=1 sweeps on the calling thread, K>1 runs one task per
/// worker on the driver's ThreadPool.  Plans are fetched through the
/// thread-safe PlanCache, so workers hitting the same fingerprint share one
/// build.  Before each group the worker session is reset_for_replay()ed —
/// clocks to zero, RNG reseeded, device cleared — so every group's replay is
/// a pure function of (plan, config) and the merged results are bit-identical
/// to the sequential (parallelism=1) sweep: per-group results are merged in
/// group order, making the population-weighted mean's summation order fixed.
/// The reset deliberately keeps each session's StorageArena, so successive
/// groups on a worker recycle tensor buffers instead of hitting the heap;
/// MYSTIQUE_LOG_LEVEL=info logs arena + plan-cache counters after each sweep.
///
/// ## Surviving a sweep (resilience layer)
///
/// A fleet database is never uniformly healthy, so `replay_groups` is
/// fault-isolating rather than fail-fast: one group's failure records a
/// GroupStatus (`ok` / `failed` / `timed_out` / `quarantined`) with its
/// error text, and the sweep carries on — the weighted mean is computed over
/// the groups that succeeded, with `population_covered_ok` reporting how much
/// of the fleet they represent.  On top of isolation:
///
///  - **retry** — a failed group is re-attempted at once, up to
///    `max_retries` times, on a freshly reset_for_replay()ed session
///    (set_max_retries / MYST_SWEEP_RETRIES, read when the driver is
///    constructed);
///  - **a per-group deadline** — a soft deadline (set_group_deadline_ms /
///    MYST_SWEEP_GROUP_DEADLINE_MS) enforced by a cooperative CancelToken
///    the Replayer polls between plan units (status `timed_out`; never
///    retried);
///  - **journal + quarantine** — with a journal directory configured
///    (set_journal_dir / MYST_SWEEP_JOURNAL), per-group outcomes persist to
///    an append-only JSONL journal (core/sweep_journal.h): a restarted sweep
///    restores completed groups bit-identically instead of replaying them,
///    and fingerprints with repeated recorded failures are `quarantined`
///    (skipped) until a later success — e.g. a set_probe_quarantined(true)
///    probe attempt — heals them.
///
/// Contract: with nothing failing, every knob at its default, and any
/// parallelism level, results are bit-identical to the fail-fast driver this
/// layer replaced; the resilience path never substitutes a wrong plan and
/// never tears the journal (tests/core/replay_driver_test.cpp, the
/// differential oracle's sweep checks, and `mystique-fuzz --churn` over the
/// `sweep.group` / `journal.write` / `journal.load` fault sites).
///
/// Layering note: TraceDatabase lives in et/ (below core/), so the database
/// sweep entry point lives here as ReplayDriver::replay_groups(db) rather
/// than as a TraceDatabase method.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/plan_cache.h"
#include "core/replayer.h"
#include "core/sweep_journal.h"
#include "et/trace_db.h"
#include "framework/storage_arena.h"

namespace mystique::core {

/// One group's replay outcome.
struct GroupReplayResult {
    et::TraceGroup group;
    /// Valid when status == kOk; default-initialized otherwise.  For a group
    /// restored from the journal, iter_us / mean_iter_us are the recorded
    /// bit-exact timings and the remaining fields are default (the journal
    /// stores outcomes, not profiler traces).
    ReplayResult result;
    GroupStatus status = GroupStatus::kOk;
    /// Error text of the last attempt (failed / timed_out), or of the
    /// journaled failure that quarantined the group.  Empty for ok.
    std::string error;
    /// Replay attempts consumed (1 = first try succeeded; 0 = never
    /// attempted: restored or quarantined).
    uint32_t attempts = 0;
    /// True when the result was restored from the sweep journal.
    bool from_journal = false;
};

/// Whole-database sweep outcome.
struct DatabaseReplayResult {
    std::vector<GroupReplayResult> groups;
    /// Population-weighted mean iteration time over the *succeeded* groups:
    /// Σ(weight·mean) / Σ(weight) — the fleet-level per-iteration estimate.
    double weighted_mean_iter_us = 0.0;
    /// Fraction of the database population the sweep's group selection
    /// covers (1.0 when every group was selected; less under top_k
    /// truncation) — includes groups that subsequently failed.
    double population_covered = 0.0;
    /// Fraction of the database population covered by groups that finished
    /// ok (replayed or journal-restored).  Equal to population_covered on a
    /// fully healthy sweep.
    double population_covered_ok = 0.0;
    /// Per-status group counts (sum == groups.size()).
    std::size_t groups_ok = 0;
    std::size_t groups_failed = 0;
    std::size_t groups_timed_out = 0;
    std::size_t groups_quarantined = 0;
    /// Re-attempts beyond each group's first.
    uint64_t retries = 0;
    /// Groups restored from the sweep journal instead of replayed.
    std::size_t journal_resumed = 0;
    /// Journal appends that failed (best-effort; the sweep continues, a
    /// future resume just re-replays those groups).
    std::size_t journal_write_failures = 0;
    /// Plan-cache counters observed after the sweep — with a disk tier
    /// configured (MYST_PLAN_CACHE_DIR), disk_hits/disk_misses/builds/
    /// writebacks show how much of the sweep was served across processes.
    PlanCacheStats cache;
    /// Storage-arena counters aggregated over the worker sessions after the
    /// sweep (recycling across iterations and groups shows up as hits).
    /// Counters and byte totals are summed; peak_bytes_outstanding is the
    /// max over workers (per-worker peaks occur at different times).
    fw::StorageArenaStats arena;
};

/// Sweeps a trace database: analyze → one cached plan per group → replay
/// representatives on pooled worker sessions → weight by population.
class ReplayDriver {
  public:
    /// @param cache        defaults to the process-wide cache; tests inject one.
    /// @param parallelism  worker sessions replaying groups concurrently;
    ///        1 (default) sweeps sequentially on a single reused session.
    /// Reads the resilience knobs' environment variables (see the setters);
    /// throws ConfigError naming a variable whose value is malformed.
    explicit ReplayDriver(ReplayConfig cfg, PlanCache* cache = &PlanCache::instance(),
                          std::size_t parallelism = 1);
    ~ReplayDriver();

    ReplayDriver(const ReplayDriver&) = delete;
    ReplayDriver& operator=(const ReplayDriver&) = delete;

    std::size_t parallelism() const { return parallelism_; }

    /// Resilience knobs.  The constructor reads each one's environment
    /// variable once; a setter replaces that value for later sweeps.
    /// Retries beyond the first attempt per failed group, each run at once
    /// (MYST_SWEEP_RETRIES; default 0; a negative count is 0).  Timeouts
    /// are never retried.
    void set_max_retries(int retries) { max_retries_ = std::max(0, retries); }
    /// Per-group soft deadline in ms, polled between replayed plan units
    /// (MYST_SWEEP_GROUP_DEADLINE_MS; default none).  nullopt = no
    /// deadline, 0 = already expired.
    void set_group_deadline_ms(std::optional<uint64_t> ms) { group_deadline_ms_ = ms; }
    /// Journal directory for crash-safe resume + quarantine
    /// (MYST_SWEEP_JOURNAL; default off).  "" turns journaling off.
    void set_journal_dir(std::string dir) { journal_dir_ = std::move(dir); }
    /// When true, quarantined groups get one probe attempt (no retries)
    /// instead of being skipped — the heal path.  Default false.
    void set_probe_quarantined(bool probe) { probe_quarantined_ = probe; }

    /// Replays the @p top_k most-populous groups (all groups by default).
    /// Results are identical for every parallelism level.  Never throws for
    /// a per-group failure — see the GroupStatus model above (a malformed
    /// MYST_FAULT spec makes every should_fail hook throw, so groups fail).
    /// @param profs  optional per-trace profiler traces, parallel to the
    ///        database's indices; null entries (or a null vector) build
    ///        plans without stream assignments.
    DatabaseReplayResult
    replay_groups(const et::TraceDatabase& db,
                  std::size_t top_k = std::numeric_limits<std::size_t>::max(),
                  const std::vector<const prof::ProfilerTrace*>* profs = nullptr);

  private:
    struct Worker; // Session + CommFabric, defined in the .cpp
    struct ResolvedResilience; // per-sweep state, defined in the .cpp

    /// Replays @p group's representative once on @p worker's reset session.
    ReplayResult replay_one(Worker& worker, const et::TraceDatabase& db,
                            const et::TraceGroup& group,
                            const std::vector<const prof::ProfilerTrace*>* profs,
                            const CancelToken* cancel);
    /// The resilient wrapper around replay_one: journal resume, quarantine,
    /// the group deadline, retries, status recording.  Never throws; shared
    /// counters live in @p res as atomics (workers call this concurrently).
    GroupReplayResult run_group_resilient(Worker& worker, const et::TraceDatabase& db,
                                          const et::TraceGroup& group,
                                          const std::vector<const prof::ProfilerTrace*>* profs,
                                          ResolvedResilience& res);
    /// Fingerprints the sweep and opens/loads the journal for one sweep over
    /// @p groups.
    void resolve_resilience(const std::vector<et::TraceGroup>& groups,
                            ResolvedResilience& res) const;

    ReplayConfig cfg_;
    PlanCache* cache_;
    const std::size_t parallelism_;
    int max_retries_;
    std::optional<uint64_t> group_deadline_ms_;
    std::string journal_dir_; ///< "" = journaling off
    bool probe_quarantined_ = false;
    /// Workers persist across sweeps: session construction and arena warmth
    /// are paid once per driver, not once per sweep.
    std::vector<std::unique_ptr<Worker>> workers_;
    std::unique_ptr<ThreadPool> pool_;
};

} // namespace mystique::core
