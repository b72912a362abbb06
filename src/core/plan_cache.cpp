#include "core/plan_cache.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/env.h"
#include "common/thread_pool.h"
#include "core/plan_store.h"

namespace mystique::core {

PlanCache::PlanCache(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1))
{
}

PlanCache::~PlanCache()
{
    flush_writebacks();
}

PlanCache&
PlanCache::instance()
{
    static PlanCache cache;
    return cache;
}

std::shared_ptr<PlanStore>
PlanCache::open_store() const
{
    std::string dir;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (store_override_.has_value()) {
            dir = *store_override_;
        } else {
            // Read at use time like every other runtime knob (docs/env_vars.md).
            dir = env_string("MYST_PLAN_CACHE_DIR");
        }
    }
    if (dir.empty())
        return nullptr;
    return std::make_shared<PlanStore>(std::move(dir));
}

std::shared_ptr<const ReplayPlan>
PlanCache::get_or_build(const et::ExecutionTrace& trace, const prof::ProfilerTrace* prof,
                        const ReplayConfig& cfg)
{
    return resolve(trace, nullptr, prof, cfg);
}

std::shared_ptr<const ReplayPlan>
PlanCache::get_or_build(std::shared_ptr<const et::ExecutionTrace> trace,
                        const prof::ProfilerTrace* prof, const ReplayConfig& cfg)
{
    MYST_CHECK(trace != nullptr);
    const et::ExecutionTrace& ref = *trace;
    return resolve(ref, std::move(trace), prof, cfg);
}

std::shared_ptr<const ReplayPlan>
PlanCache::resolve(const et::ExecutionTrace& trace,
                   std::shared_ptr<const et::ExecutionTrace> shared,
                   const prof::ProfilerTrace* prof, const ReplayConfig& cfg)
{
    const PlanKey key = plan_key(trace, prof, cfg);

    std::promise<std::shared_ptr<const ReplayPlan>> promise;
    std::shared_future<std::shared_ptr<const ReplayPlan>> future;
    bool builder = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            // Hit — including concurrent requests that arrive while the first
            // build is still in flight; they wait on the same future below.
            ++hits_;
            it->second.last_used = ++tick_;
            future = it->second.plan;
        } else {
            ++misses_;
            builder = true;
            future = promise.get_future().share();
            entries_[key] = Entry{future, /*ready=*/false, ++tick_};
        }
    }

    if (!builder)
        return future.get();

    // Builder path: resolve outside the lock so unrelated keys (and their
    // waiters) make progress concurrently.  The disk tier goes first — a hit
    // costs one parse instead of the whole selection+reconstruction pass —
    // and anything wrong with the entry was quarantined inside load(), so a
    // null return always means "build it".
    const std::shared_ptr<PlanStore> store = open_store();
    try {
        // The plan must outlive the caller's trace reference: share the
        // caller's handle when it has one, deep-copy exactly once when not.
        // Either way the misses below (disk load or full build) perform no
        // further trace copies.
        if (shared == nullptr)
            shared = std::make_shared<et::ExecutionTrace>(trace);
        std::shared_ptr<const ReplayPlan> plan;
        bool disk_hit = false;
        if (store != nullptr) {
            plan = store->load(key, shared);
            disk_hit = plan != nullptr;
        }
        if (plan == nullptr)
            plan = ReplayPlan::build_with_key(std::move(shared), prof, cfg, key);
        promise.set_value(plan);
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (store != nullptr)
                disk_hit ? ++disk_hits_ : ++disk_misses_;
            if (!disk_hit) {
                ++builds_;
                // Optimizer counters accumulate on builds only: warm plans
                // (either tier) are already optimized, so a warm sweep shows
                // zero re-optimization.
                const OptimizerStats& opt = plan->optimizer_stats();
                opt_ops_fused_ += static_cast<uint64_t>(opt.ops_fused);
                opt_ops_eliminated_ += static_cast<uint64_t>(opt.ops_eliminated);
                opt_chains_formed_ += static_cast<uint64_t>(opt.chains_formed);
                opt_time_us_ += opt.optimize_us;
            }
            auto it = entries_.find(key);
            if (it != entries_.end())
                it->second.ready = true;
            evict_excess_locked();
        }
        // Write-back on fresh builds only: a disk hit already lives there,
        // and build-once semantics make this write-once per key per process.
        if (!disk_hit && store != nullptr)
            submit_writeback(store, plan);
        return plan;
    } catch (...) {
        promise.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(mu_);
        entries_.erase(key); // later requests retry instead of caching failure
        throw;
    }
}

void
PlanCache::submit_writeback(std::shared_ptr<PlanStore> store,
                            std::shared_ptr<const ReplayPlan> plan)
{
    std::future<void> pending;
    try {
        pending = ThreadPool::background().submit(
            [this, store = std::move(store), plan = std::move(plan)] {
                if (store->store(*plan)) {
                    std::lock_guard<std::mutex> lock(mu_);
                    ++writebacks_;
                }
            });
    } catch (...) {
        return; // pool shutting down (process exit) — persistence is best-effort
    }
    std::lock_guard<std::mutex> lock(mu_);
    // Prune settled futures so a long-lived process with the tier enabled
    // holds state only for writebacks actually in flight.
    std::erase_if(writeback_futures_, [](std::future<void>& f) {
        return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    });
    writeback_futures_.push_back(std::move(pending));
}

void
PlanCache::flush_writebacks()
{
    std::vector<std::future<void>> pending;
    {
        std::lock_guard<std::mutex> lock(mu_);
        pending.swap(writeback_futures_);
    }
    for (std::future<void>& f : pending) {
        try {
            f.get();
        } catch (...) {
            // store() reports failures via its return value; nothing to do.
        }
    }
}

bool
PlanCache::insert(std::shared_ptr<const ReplayPlan> plan)
{
    MYST_CHECK(plan != nullptr);
    const PlanKey key = plan->key();

    std::promise<std::shared_ptr<const ReplayPlan>> promise;
    promise.set_value(std::move(plan));

    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.find(key) != entries_.end())
        return false;
    entries_[key] = Entry{promise.get_future().share(), /*ready=*/true, ++tick_};
    evict_excess_locked();
    return true;
}

std::shared_ptr<const ReplayPlan>
PlanCache::lookup(const PlanKey& key) const
{
    std::shared_future<std::shared_ptr<const ReplayPlan>> future;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it == entries_.end() || !it->second.ready)
            return nullptr;
        future = it->second.plan;
    }
    return future.get();
}

PlanCacheStats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    PlanCacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.disk_hits = disk_hits_;
    s.disk_misses = disk_misses_;
    s.builds = builds_;
    s.writebacks = writebacks_;
    s.evictions = evictions_;
    s.size = entries_.size();
    s.capacity = capacity_;
    s.opt_ops_fused = opt_ops_fused_;
    s.opt_ops_eliminated = opt_ops_eliminated_;
    s.opt_chains_formed = opt_chains_formed_;
    s.opt_time_us = opt_time_us_;
    return s;
}

void
PlanCache::clear()
{
    // Settle in-flight writebacks first so their completions cannot bump the
    // counters this is about to zero.
    flush_writebacks();
    std::lock_guard<std::mutex> lock(mu_);
    // Keep in-flight builds (their owners still hold the promise); dropping
    // them here would not cancel the build anyway.
    for (auto it = entries_.begin(); it != entries_.end();) {
        it = it->second.ready ? entries_.erase(it) : std::next(it);
    }
    hits_ = misses_ = disk_hits_ = disk_misses_ = builds_ = writebacks_ = evictions_ = 0;
    opt_ops_fused_ = opt_ops_eliminated_ = opt_chains_formed_ = 0;
    opt_time_us_ = 0.0;
    tick_ = 0;
}

void
PlanCache::set_capacity(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(mu_);
    capacity_ = std::max<std::size_t>(capacity, 1);
    evict_excess_locked();
}

void
PlanCache::set_store_dir(std::optional<std::string> dir)
{
    // Writebacks bound for the *old* store should land before the switch
    // takes effect (tests rely on a settled directory).
    flush_writebacks();
    std::lock_guard<std::mutex> lock(mu_);
    store_override_ = std::move(dir);
}

void
PlanCache::evict_excess_locked()
{
    while (entries_.size() > capacity_) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (!it->second.ready)
                continue; // never evict an in-flight build
            if (victim == entries_.end() || it->second.last_used < victim->second.last_used)
                victim = it;
        }
        if (victim == entries_.end())
            return; // everything over capacity is still building
        entries_.erase(victim);
        ++evictions_;
    }
}

} // namespace mystique::core
