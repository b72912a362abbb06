#include "core/replay_driver.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <climits>
#include <string>
#include <thread>

#include "common/env.h"
#include "common/error.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace mystique::core {

/// One pooled replay worker: a single-rank Session + CommFabric constructed
/// once and reused for every group this worker replays.
struct ReplayDriver::Worker {
    explicit Worker(const ReplayConfig& cfg)
        : session(std::make_unique<fw::Session>(cfg.session_options(0, 1))),
          fabric(std::make_shared<comm::CommFabric>(1))
    {
    }

    std::unique_ptr<fw::Session> session;
    std::shared_ptr<comm::CommFabric> fabric;
};

/// Per-sweep snapshot of the resilience knobs plus the shared mutable state
/// of one replay_groups call.  Snapshotting once keeps every group of a sweep
/// under the same policy even if the environment changes mid-sweep; the
/// counters are atomics because workers bump them concurrently.
struct ReplayDriver::ResolvedResilience {
    int max_retries = 0;
    uint64_t backoff_ms = 10;
    std::optional<uint64_t> group_deadline_ms;
    bool probe_quarantined = false;
    /// Sweep-level deadline; never expires when the knob is unset.
    CancelToken sweep_token;
    /// Identity of this sweep for journal lookups: the selected groups
    /// (fingerprints, weights, representatives) × the full config, harness
    /// knobs included — a sweep with different iteration counts must not
    /// resume from another's timings.
    uint64_t sweep_fp = 0;
    std::unique_ptr<SweepJournal> journal; ///< null = journaling off
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> backoff_slept_ms{0};
    std::atomic<std::size_t> journal_resumed{0};
    std::atomic<std::size_t> journal_write_failures{0};
};

ReplayDriver::ReplayDriver(ReplayConfig cfg, PlanCache* cache, std::size_t parallelism)
    : cfg_(std::move(cfg)), cache_(cache), parallelism_(std::max<std::size_t>(1, parallelism))
{
    MYST_CHECK(cache_ != nullptr);
}

ReplayDriver::~ReplayDriver() = default;

void
ReplayDriver::set_parallelism(std::size_t parallelism)
{
    parallelism_ = std::max<std::size_t>(1, parallelism);
}

ReplayDriver::Worker&
ReplayDriver::ensure_worker(std::size_t index)
{
    while (workers_.size() <= index)
        workers_.push_back(std::make_unique<Worker>(cfg_));
    return *workers_[index];
}

void
ReplayDriver::resolve_resilience(const std::vector<et::TraceGroup>& groups,
                                 ResolvedResilience& res) const
{
    res.max_retries =
        max_retries_.has_value()
            ? *max_retries_
            : static_cast<int>(env_u64("MYST_SWEEP_RETRIES", INT_MAX).value_or(0));
    res.max_retries = std::max(0, res.max_retries);
    res.backoff_ms =
        backoff_ms_.has_value() ? *backoff_ms_ : env_u64("MYST_SWEEP_BACKOFF_MS").value_or(10);
    // The last retry sleeps backoff_ms << (max_retries - 1).  A shift of 64
    // bits or more is undefined and a wrapped product sleeps a wrong time, so
    // a pair whose largest sleep does not fit in 64 bits is rejected here,
    // before any group runs.
    if (res.backoff_ms != 0 && res.max_retries - 1 > std::countl_zero(res.backoff_ms))
        MYST_THROW(ConfigError, "sweep retries=" << res.max_retries
                                                 << " with backoff_ms=" << res.backoff_ms
                                                 << ": the last backoff, backoff_ms << "
                                                    "(retries - 1), overflows 64 bits");
    res.group_deadline_ms = group_deadline_ms_.has_value()
                                ? group_deadline_ms_
                                : env_u64("MYST_SWEEP_GROUP_DEADLINE_MS");
    res.probe_quarantined = probe_quarantined_;
    if (sweep_deadline_ms_.has_value())
        res.sweep_token.set_deadline_after_ms(*sweep_deadline_ms_);

    Fnv1a h;
    h.mix(cfg_.to_json().dump());
    for (const et::TraceGroup& g : groups) {
        h.mix_pod(g.fingerprint);
        h.mix_pod(g.population_weight);
        h.mix_pod(g.representative());
    }
    res.sweep_fp = h.value();

    const std::string dir =
        journal_dir_.has_value() ? *journal_dir_ : env_string("MYST_SWEEP_JOURNAL");
    if (!dir.empty()) {
        res.journal = std::make_unique<SweepJournal>(dir);
        res.journal->load(); // absorbs journal.load faults: worst case, no resume
    }
}

GroupReplayResult
ReplayDriver::replay_one(Worker& worker, const et::TraceDatabase& db,
                         const et::TraceGroup& group,
                         const std::vector<const prof::ProfilerTrace*>* profs,
                         const CancelToken* cancel)
{
    const std::size_t rep = group.representative();
    const prof::ProfilerTrace* prof =
        profs != nullptr && rep < profs->size() ? (*profs)[rep] : nullptr;

    // trace_handle: the plan shares the database's trace — a disk-tier hit
    // costs one parse + IR compile, never an O(trace) deep copy.
    const std::shared_ptr<const ReplayPlan> plan =
        cache_->get_or_build(db.trace_handle(rep), prof, cfg_);

    // Every group replays from identical session state (clocks, RNG, device,
    // pg-id space) so the result is a pure function of (plan, config) — the
    // parallel sweep's bit-identity with the sequential one depends on this.
    // The session's StorageArena survives the reset: successive groups on
    // this worker recycle the previous group's tensor buffers.  The reset
    // also makes retries safe: a session abandoned mid-iteration by a
    // timeout or failure is rewound, never reused dirty.
    worker.session->reset_for_replay();
    Replayer executor(plan, cfg_);
    GroupReplayResult g;
    g.group = group;
    g.representative = rep;
    g.result = executor.run_with(*worker.session, worker.fabric, cancel);
    g.status = GroupStatus::kOk;
    g.attempts = 1;
    return g;
}

GroupReplayResult
ReplayDriver::run_group_resilient(Worker& worker, const et::TraceDatabase& db,
                                  const et::TraceGroup& group,
                                  const std::vector<const prof::ProfilerTrace*>* profs,
                                  ResolvedResilience& res)
{
    GroupReplayResult g;
    g.group = group;
    g.representative = group.representative();

    // Resume: a completed group restores its recorded (bit-exact) timings
    // for free — even past the sweep deadline, since no replay is burned.
    if (res.journal != nullptr) {
        if (const auto rec = res.journal->completed(res.sweep_fp, group.fingerprint)) {
            g.status = GroupStatus::kOk;
            g.from_journal = true;
            g.attempts = 0;
            g.result.iter_us = rec->iter_us;
            g.result.mean_iter_us = rec->mean_iter_us;
            res.journal_resumed.fetch_add(1, std::memory_order_relaxed);
            return g;
        }
    }

    // Quarantine: a fingerprint with repeated recorded failures is skipped
    // (carrying the last recorded error for reporting) unless this sweep is
    // probing — a probe gives it exactly one healing attempt, no retries.
    const bool quarantined =
        res.journal != nullptr && res.journal->quarantined(group.fingerprint);
    if (quarantined && !res.probe_quarantined) {
        g.status = GroupStatus::kQuarantined;
        g.attempts = 0;
        if (const auto fail = res.journal->last_failure(group.fingerprint))
            g.error = fail->error;
        return g;
    }

    // Sweep deadline: groups not started before it passes are skipped, not
    // failed — nothing is known about them, and they carry no error.
    if (res.sweep_token.expired()) {
        g.status = GroupStatus::kSkipped;
        g.attempts = 0;
        return g;
    }

    const int max_attempts = quarantined ? 1 : 1 + res.max_retries;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        if (attempt > 1) {
            // Deterministic exponential backoff: 1×, 2×, 4×, ... the base
            // (resolve_resilience bounds the shift whenever the base is
            // nonzero).
            const uint64_t sleep_ms = res.backoff_ms == 0 ? 0 : res.backoff_ms << (attempt - 2);
            res.retries.fetch_add(1, std::memory_order_relaxed);
            res.backoff_slept_ms.fetch_add(sleep_ms, std::memory_order_relaxed);
            if (sleep_ms > 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
        }
        g.attempts = static_cast<uint32_t>(attempt);
        try {
            if (FaultInjection::instance().should_fail("sweep.group"))
                MYST_THROW(ReplayError, "injected fault: sweep group replay failed "
                                        "(group fp " << group.fingerprint << ")");
            CancelToken token;
            if (res.group_deadline_ms.has_value())
                token.set_deadline_after_ms(*res.group_deadline_ms);
            GroupReplayResult done = replay_one(worker, db, group, profs, &token);
            g.result = std::move(done.result);
            g.status = GroupStatus::kOk;
            g.error.clear();
            break;
        } catch (const CancelledError& e) {
            // A deadline that expired once would expire again: no retry.
            g.status = GroupStatus::kTimedOut;
            g.error = e.what();
            break;
        } catch (const std::exception& e) {
            g.status = GroupStatus::kFailed;
            g.error = e.what();
        }
    }

    // Journal the terminal outcome.  An ok record after failures resets the
    // quarantine streak (heals); a failed probe extends it.
    if (res.journal != nullptr) {
        SweepJournalRecord rec;
        rec.sweep_fp = res.sweep_fp;
        rec.group_fp = group.fingerprint;
        rec.status = g.status;
        rec.attempts = g.attempts;
        rec.error = g.error;
        rec.population_weight = group.population_weight;
        if (g.status == GroupStatus::kOk) {
            rec.iter_us = g.result.iter_us;
            rec.mean_iter_us = g.result.mean_iter_us;
        }
        if (!res.journal->append(rec))
            res.journal_write_failures.fetch_add(1, std::memory_order_relaxed);
    }
    return g;
}

DatabaseReplayResult
ReplayDriver::replay_groups(const et::TraceDatabase& db, std::size_t top_k,
                            const std::vector<const prof::ProfilerTrace*>* profs)
{
    DatabaseReplayResult out;
    if (db.size() == 0 || top_k == 0) {
        out.cache = cache_->stats();
        return out;
    }

    std::vector<et::TraceGroup> groups = db.analyze();
    if (groups.size() > top_k)
        groups.resize(top_k);
    out.groups.resize(groups.size());

    ResolvedResilience res;
    resolve_resilience(groups, res);

    const std::size_t workers = std::min(parallelism_, groups.size());
    if (workers <= 1) {
        Worker& w = ensure_worker(0);
        for (std::size_t i = 0; i < groups.size(); ++i)
            out.groups[i] = run_group_resilient(w, db, groups[i], profs, res);
    } else {
        for (std::size_t w = 0; w < workers; ++w)
            ensure_worker(w); // construct on the driver thread, use on pool threads
        if (pool_ == nullptr || pool_->size() != workers)
            pool_ = std::make_unique<ThreadPool>(workers);

        // Deterministic striping: worker w replays groups w, w+K, w+2K, ...
        // Each worker session is owned by exactly one pool task; only the
        // PlanCache and the resilience state (both thread-safe) are shared.
        // Tasks never throw: every per-group outcome — including an injected
        // sweep.group fault on several workers at once — lands in its own
        // GroupReplayResult, so one sick group can no longer mask another's
        // error or abort the sweep.
        std::vector<std::future<void>> done;
        done.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) {
            done.push_back(pool_->submit([this, w, workers, &groups, &db, profs, &res,
                                          &out] {
                for (std::size_t i = w; i < groups.size(); i += workers)
                    out.groups[i] =
                        run_group_resilient(*workers_[w], db, groups[i], profs, res);
            }));
        }
        for (std::size_t w = 0; w < workers; ++w)
            done[w].get();
    }

    // Merge in group order regardless of which worker replayed what, so the
    // weighted mean's floating-point summation order is fixed.  Only ok
    // groups (replayed or journal-restored) contribute to the mean; on a
    // fully healthy sweep this is arithmetic-identical to summing everything.
    double weight_sum = 0.0;
    double ok_weight_sum = 0.0;
    double weighted_us = 0.0;
    for (const GroupReplayResult& g : out.groups) {
        weight_sum += g.group.population_weight;
        switch (g.status) {
        case GroupStatus::kOk:
            ok_weight_sum += g.group.population_weight;
            weighted_us += g.group.population_weight * g.result.mean_iter_us;
            ++out.groups_ok;
            break;
        case GroupStatus::kFailed: ++out.groups_failed; break;
        case GroupStatus::kTimedOut: ++out.groups_timed_out; break;
        case GroupStatus::kQuarantined: ++out.groups_quarantined; break;
        case GroupStatus::kSkipped: ++out.groups_skipped; break;
        }
    }
    out.population_covered = weight_sum;
    out.population_covered_ok = ok_weight_sum;
    out.weighted_mean_iter_us = ok_weight_sum > 0.0 ? weighted_us / ok_weight_sum : 0.0;
    out.retries = res.retries.load(std::memory_order_relaxed);
    out.backoff_ms = res.backoff_slept_ms.load(std::memory_order_relaxed);
    out.journal_resumed = res.journal_resumed.load(std::memory_order_relaxed);
    out.journal_write_failures = res.journal_write_failures.load(std::memory_order_relaxed);
    out.cache = cache_->stats();
    for (const auto& w : workers_) {
        const fw::StorageArenaStats s = w->session->arena().stats();
        out.arena.hits += s.hits;
        out.arena.misses += s.misses;
        out.arena.returns += s.returns;
        out.arena.heap_frees += s.heap_frees;
        out.arena.bytes_outstanding += s.bytes_outstanding;
        // Max, not sum: per-worker peaks happen at different times, so their
        // sum would report a high-water mark no state ever reached.
        out.arena.peak_bytes_outstanding =
            std::max(out.arena.peak_bytes_outstanding, s.peak_bytes_outstanding);
        out.arena.bytes_cached += s.bytes_cached;
    }

    const PlanCacheStats& c = out.cache;
    const fw::StorageArenaStats& a = out.arena;
    MYST_INFO("sweep: " << out.groups.size() << " groups, parallelism=" << parallelism_
              << ", weighted_mean_iter_us=" << strprintf("%.2f", out.weighted_mean_iter_us)
              << "\n  resilience: ok=" << out.groups_ok << " failed=" << out.groups_failed
              << " timed_out=" << out.groups_timed_out << " quarantined="
              << out.groups_quarantined << " skipped=" << out.groups_skipped
              << " retries=" << out.retries << " backoff_ms=" << out.backoff_ms
              << " resumed=" << out.journal_resumed << " journal_write_failures="
              << out.journal_write_failures
              << " covered_ok=" << strprintf("%.4f", out.population_covered_ok)
              << "\n  plan cache: hits=" << c.hits << " misses=" << c.misses
              << " disk_hits=" << c.disk_hits << " disk_misses=" << c.disk_misses
              << " builds=" << c.builds << " writebacks=" << c.writebacks
              << " evictions=" << c.evictions << " size=" << c.size << "/" << c.capacity
              << "\n  optimizer: chains=" << c.opt_chains_formed << " ops_fused="
              << c.opt_ops_fused << " ops_eliminated=" << c.opt_ops_eliminated
              << " optimize_us=" << strprintf("%.1f", c.opt_time_us) << " (builds only)"
              << "\n  arena: hits=" << a.hits << " misses=" << a.misses << " returns="
              << a.returns << " cached=" << a.bytes_cached << " B outstanding="
              << a.bytes_outstanding << " B (max worker peak " << a.peak_bytes_outstanding
              << " B)");
    return out;
}

} // namespace mystique::core
