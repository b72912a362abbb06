#pragma once

/// @file
/// The ET replayer (§4.6), split into a build phase and an execution phase.
///
/// ## Plan / executor split
///
/// Replay used to be monolithic: every Replayer instance re-ran selection,
/// coverage, reconstruction and stream assignment.  Those stages are now the
/// immutable, shareable **ReplayPlan** (core/replay_plan.h); the Replayer is
/// a thin per-rank *executor* that runs a plan's units against its own
/// Session/TensorManager.  One plan can back any number of executors
/// concurrently — run_distributed hands N rank threads read-only references
/// to plans built once, instead of rebuilding N identical ones.
///
/// ## One executor path
///
/// A plan's dependency-graph units (core/plan_optimizer.h) are what runs:
/// the serial walk takes them in program order, the async walk (MYST_ASYNC)
/// schedules them over per-stream lanes, and both dispatch a unit the same
/// way.  ReplayConfig::session_options configures every replay Session.
///
/// ## Cache lifecycle
///
/// Plans are cached process-wide in the **PlanCache** (core/plan_cache.h),
/// keyed by (trace fingerprint, supported-OpId set, ReplayConfig
/// fingerprint).  The fleet-scale consumers — run_distributed and
/// ReplayDriver's trace-database sweeps (§8.2) — fetch through the cache, so
/// a second replay of an *equivalent* trace (same operator mix) skips the
/// entire build phase.  With MYST_PLAN_CACHE_DIR set the cache adds a
/// disk tier (core/plan_store.h), extending the same reuse across process
/// restarts: a rank's plan miss loads the persisted entry instead of
/// building.  Direct `Replayer(trace, prof, cfg)` construction still builds
/// a private, uncached plan: one-shot tools keep their no-global-state
/// behavior, and nothing is retained past the Replayer.  That plan is built
/// like any other: it copies the trace and carries its full key.  Cache
/// entries are LRU-evicted; executors keep plans alive via shared_ptr, so
/// eviction never invalidates a running replay.
///
/// The use-case knobs of §7 (subtrace replay, operator-type filtering,
/// scaled-down emulation) live in ReplayConfig and participate in the cache
/// key exactly when they shape the plan.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/process_group.h"
#include "common/cancel_token.h"
#include "core/replay_plan.h"
#include "core/tensor_manager.h"
#include "device/device.h"
#include "et/trace.h"
#include "profiler/profiler.h"

namespace mystique::core {

/// Outcome of one (per-rank) replay.
struct ReplayResult {
    std::vector<double> iter_us;
    double mean_iter_us = 0.0;
    dev::DeviceMetrics metrics;
    prof::ProfilerTrace prof;
    CoverageStats coverage;
    /// Order-independent digest of the final tensor bindings (see
    /// TensorManager::digest, which mixes storage a word at a time) — the
    /// differential oracle's bit-identity witness for numeric replays.
    /// Not a stable format: compare it only with digests the same code
    /// computed.
    uint64_t numeric_digest = 0;
};

/// Per-rank executor over a (possibly shared) ReplayPlan.
class Replayer {
  public:
    /// Builds a private, uncached plan from @p trace (ReplayPlan::build).
    /// @param trace  the ET to replay; the plan keeps its own copy, so the
    ///        caller's trace may be a temporary
    /// @param original_prof  profiler trace of the original run — used for
    ///        op→stream mapping (§4.5) and time-coverage; may be null
    Replayer(const et::ExecutionTrace& trace, const prof::ProfilerTrace* original_prof,
             ReplayConfig cfg);

    /// Executes over an existing plan (typically fetched from the PlanCache).
    /// @p cfg must fingerprint-match the config the plan was built under
    /// (guaranteed for cache fetches; enforced with a check here).
    Replayer(std::shared_ptr<const ReplayPlan> plan, ReplayConfig cfg);

    /// Runs a single-rank replay with a private session/fabric.
    /// @param cancel  optional cooperative cancellation/deadline token
    ///        (see run_with).
    ReplayResult run(const CancelToken* cancel = nullptr);

    /// Runs with an externally-provided session and fabric (distributed
    /// ranks share a fabric; each rank owns a Replayer on its thread).
    /// Leaves the session reusable: on every exit path the profiler is
    /// detached and the clock override, node reseeding and stream override
    /// are cleared.
    ///
    /// @param cancel  optional cooperative cancellation token.  Polled
    ///        before every plan unit — never mid-kernel, so the simulator's
    ///        determinism is preserved up to the cut.  An expired token
    ///        throws CancelledError at the next unit boundary (a plan with no
    ///        units never polls); the session is left in a mid-iteration
    ///        state and must be reset_for_replay()ed before reuse (the sweep
    ///        driver always does).
    ReplayResult run_with(fw::Session& session,
                          const std::shared_ptr<comm::CommFabric>& fabric,
                          const CancelToken* cancel = nullptr);

    const std::shared_ptr<const ReplayPlan>& plan() const { return plan_; }
    const Selection& selection() const { return plan_->selection(); }
    const CoverageStats& coverage_stats() const { return plan_->coverage(); }

    /// Replays N traces on N concurrent rank tasks sharing one fabric.
    /// Trace count may be smaller than the original world size when combined
    /// with emulate_world_size (scale-down, §7.3).  Each rank task fetches
    /// its plan through the process-wide PlanCache: ranks whose traces are
    /// structurally identical (the scale-down and data-parallel cases) share
    /// one plan read-only — built exactly once — while structurally distinct
    /// ranks build their plans in parallel.
    ///
    /// Rank tasks run on a process-wide shared ThreadPool (grown to the
    /// largest world size seen, then reused across calls), and each rank
    /// slot's Session is cached: repeated distributed replays rewind it with
    /// reset_for_replay() — keeping the rank's StorageArena warm — instead
    /// of paying a thread spawn plus a cold session per rank per call.
    /// Results are bit-identical to per-call ad-hoc threads and sessions
    /// (enforced in tests/core/plan_cache_test.cpp); concurrent
    /// run_distributed calls serialize on the shared pool.
    static std::vector<ReplayResult>
    run_distributed(const std::vector<const et::ExecutionTrace*>& traces,
                    const std::vector<const prof::ProfilerTrace*>& profs, ReplayConfig cfg,
                    comm::Topology topo = {});

  private:
    void register_process_groups(fw::Session& session,
                                 const std::shared_ptr<comm::CommFabric>& fabric);

    std::shared_ptr<const ReplayPlan> plan_;
    ReplayConfig cfg_;
};

} // namespace mystique::core
