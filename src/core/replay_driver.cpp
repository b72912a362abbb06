#include "core/replay_driver.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <string>

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

/// The shared mutable state of one replay_groups call.  The counters are
/// atomics because workers bump them concurrently.
struct ReplayDriver::ResolvedResilience {
    /// Identity of this sweep for journal lookups: the selected groups
    /// (fingerprints, weights, representatives) × the full config, harness
    /// knobs included — a sweep with different iteration counts must not
    /// resume from another's timings.
    uint64_t sweep_fp = 0;
    std::unique_ptr<SweepJournal> journal; ///< null = journaling off
    std::atomic<uint64_t> retries{0};
    std::atomic<std::size_t> journal_resumed{0};
    std::atomic<std::size_t> journal_write_failures{0};
};

ReplayDriver::ReplayDriver(ReplayConfig cfg, PlanCache* cache, std::size_t parallelism)
    : cfg_(std::move(cfg)), cache_(cache), parallelism_(std::max<std::size_t>(1, parallelism)),
      max_retries_(static_cast<int>(env_u64("MYST_SWEEP_RETRIES", INT_MAX).value_or(0))),
      group_deadline_ms_(env_u64("MYST_SWEEP_GROUP_DEADLINE_MS")),
      journal_dir_(env_string("MYST_SWEEP_JOURNAL"))
{
    MYST_CHECK(cache_ != nullptr);
}

ReplayDriver::~ReplayDriver() = default;

void
ReplayDriver::resolve_resilience(const std::vector<et::TraceGroup>& groups,
                                 ResolvedResilience& res) const
{
    Fnv1a h;
    h.mix(cfg_.to_json().dump());
    for (const et::TraceGroup& g : groups) {
        h.mix_pod(g.fingerprint);
        h.mix_pod(g.population_weight);
        h.mix_pod(g.representative());
    }
    res.sweep_fp = h.value();

    if (!journal_dir_.empty()) {
        res.journal = std::make_unique<SweepJournal>(journal_dir_);
        res.journal->load(); // absorbs journal.load faults: worst case, no resume
    }
}

ReplayResult
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
    return executor.run_with(*worker.session, worker.fabric, cancel);
}

GroupReplayResult
ReplayDriver::run_group_resilient(Worker& worker, const et::TraceDatabase& db,
                                  const et::TraceGroup& group,
                                  const std::vector<const prof::ProfilerTrace*>* profs,
                                  ResolvedResilience& res)
{
    GroupReplayResult g;
    g.group = group;

    // Resume: a completed group restores its recorded (bit-exact) timings
    // for free.
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
    if (quarantined && !probe_quarantined_) {
        g.status = GroupStatus::kQuarantined;
        g.attempts = 0;
        if (const auto fail = res.journal->last_failure(group.fingerprint))
            g.error = fail->error;
        return g;
    }

    // Retries run at once: a replay is a pure function of (plan, config),
    // so only an injected fault or an allocation failure can differ between
    // attempts, and neither depends on how long the driver waits.  64 bits:
    // 1 + INT_MAX retries must not wrap to a loop that never runs.
    const int64_t max_attempts = quarantined ? 1 : int64_t{1} + max_retries_;
    for (int64_t attempt = 1; attempt <= max_attempts; ++attempt) {
        if (attempt > 1)
            res.retries.fetch_add(1, std::memory_order_relaxed);
        g.attempts = static_cast<uint32_t>(attempt);
        try {
            if (FaultInjection::instance().should_fail("sweep.group"))
                MYST_THROW(ReplayError, "injected fault: sweep group replay failed "
                                        "(group fp " << group.fingerprint << ")");
            CancelToken token;
            if (group_deadline_ms_.has_value())
                token.set_deadline_after_ms(*group_deadline_ms_);
            g.result = replay_one(worker, db, group, profs, &token);
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

    // Workers are constructed on the calling thread and kept for later
    // sweeps.
    const std::size_t k = std::min(parallelism_, groups.size());
    while (workers_.size() < k)
        workers_.push_back(std::make_unique<Worker>(cfg_));

    // Deterministic striping: worker w replays groups w, w+K, w+2K, ...
    // Each worker session is used by exactly one stripe; only the PlanCache
    // and the resilience state (both thread-safe) are shared.  A stripe never
    // throws: every per-group outcome — including an injected sweep.group
    // fault on several workers at once — lands in its own GroupReplayResult,
    // so one sick group can never mask another's error or abort the sweep.
    const auto stripe = [&](std::size_t w) {
        for (std::size_t i = w; i < groups.size(); i += k)
            out.groups[i] = run_group_resilient(*workers_[w], db, groups[i], profs, res);
    };
    if (k == 1) {
        stripe(0);
    } else {
        if (pool_ == nullptr || pool_->size() != k)
            pool_ = std::make_unique<ThreadPool>(k);
        std::vector<std::future<void>> done;
        done.reserve(k);
        for (std::size_t w = 0; w < k; ++w)
            done.push_back(pool_->submit([&stripe, w] { stripe(w); }));
        for (std::future<void>& f : done)
            f.get();
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
        }
    }
    out.population_covered = weight_sum;
    out.population_covered_ok = ok_weight_sum;
    out.weighted_mean_iter_us = ok_weight_sum > 0.0 ? weighted_us / ok_weight_sum : 0.0;
    out.retries = res.retries.load(std::memory_order_relaxed);
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
              << out.groups_quarantined << " retries=" << out.retries
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
