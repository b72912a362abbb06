#include "common/fault_injection.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/env.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace mystique {

const std::vector<std::string>&
fault_sites()
{
    static const std::vector<std::string> sites{
        "fs.write_open",   "fs.write_short",         "fs.write_fsync",
        "fs.rename",       "fs.read",                "store.load",
        "store.writeback", "pool.background_delay",  "sweep.group",
        "journal.write",   "journal.load",
    };
    return sites;
}

namespace {

/// Throws ConfigError unless @p site is in fault_sites(): arming a misspelt
/// site would run an un-faulted pass.
void
require_fault_site(const std::string& site, const char* who)
{
    const std::vector<std::string>& sites = fault_sites();
    if (std::find(sites.begin(), sites.end(), site) == sites.end())
        MYST_THROW(ConfigError, who << ": unknown fault site '" << site << "'");
}

} // namespace

struct FaultInjection::Impl {
    struct Site {
        uint64_t nth = 0;
        FaultMode mode = FaultMode::kOnce;
        bool armed = false;
        uint64_t hits = 0;
        uint64_t fired = 0;
    };

    /// The first touch picks up MYST_FAULT, so CLI runs need no code changes.
    Impl() { reload_env_locked(); }

    /// Fast path: false while nothing is armed, so disarmed hooks cost one
    /// relaxed load and never take the mutex.
    std::atomic<bool> enabled{false};
    mutable std::mutex mu;
    std::exception_ptr env_error; ///< a malformed MYST_FAULT spec
    std::unordered_map<std::string, Site> sites;
    std::vector<std::string> site_order; ///< first-hit order, for stats()

    Site& site_locked(const std::string& name)
    {
        auto [it, inserted] = sites.try_emplace(name);
        if (inserted)
            site_order.push_back(name);
        return it->second;
    }

    /// Parses "site:nth[:mode]" specs from MYST_FAULT (comma-separated).
    /// Unknown sites or modes and malformed counts throw ConfigError: a typo
    /// in a fault spec must fail loudly, not silently run an un-faulted pass.
    void load_env_locked()
    {
        const std::string env = env_string("MYST_FAULT");
        if (env.empty())
            return;
        for (const std::string& spec : split(env, ',')) {
            const std::vector<std::string> parts = split(spec, ':');
            if (parts.size() < 2 || parts.size() > 3)
                MYST_THROW(ConfigError,
                           "MYST_FAULT: expected <site>:<nth>[:<mode>], got '" << spec
                                                                              << "'");
            require_fault_site(parts[0], "MYST_FAULT");
            const std::optional<uint64_t> nth = parse_u64(parts[1]);
            if (!nth.has_value() || *nth == 0)
                MYST_THROW(ConfigError, "MYST_FAULT: bad count in '" << spec << "'");
            FaultMode mode = FaultMode::kOnce;
            if (parts.size() == 3) {
                if (parts[2] == "once")
                    mode = FaultMode::kOnce;
                else if (parts[2] == "every")
                    mode = FaultMode::kEvery;
                else if (parts[2] == "delay")
                    mode = FaultMode::kDelay;
                else
                    MYST_THROW(ConfigError, "MYST_FAULT: unknown mode in '" << spec
                                                                            << "'");
            }
            Site& s = site_locked(parts[0]);
            s.nth = *nth;
            s.mode = mode;
            s.armed = true;
            MYST_INFO("fault injection: armed '" << parts[0] << "' nth=" << *nth
                                                 << " via MYST_FAULT");
        }
        enabled.store(true, std::memory_order_relaxed);
    }

    /// Drops every site and parses MYST_FAULT afresh.  A malformed spec is
    /// kept, not thrown: every should_fail() rethrows it.
    void reload_env_locked()
    {
        enabled.store(false, std::memory_order_relaxed);
        sites.clear();
        site_order.clear();
        env_error = nullptr;
        try {
            load_env_locked();
        } catch (const ConfigError&) {
            env_error = std::current_exception();
            enabled.store(true, std::memory_order_relaxed);
        }
    }
};

FaultInjection&
FaultInjection::instance()
{
    static FaultInjection inst;
    return inst;
}

FaultInjection::Impl&
FaultInjection::impl()
{
    static Impl impl;
    return impl;
}

void
FaultInjection::arm(const std::string& site, uint64_t nth, FaultMode mode)
{
    MYST_CHECK_MSG(nth > 0, "fault nth is 1-based");
    require_fault_site(site, "FaultInjection::arm");
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    Impl::Site& s = im.site_locked(site);
    s.nth = nth;
    s.mode = mode;
    s.armed = true;
    s.hits = 0;
    s.fired = 0;
    im.env_error = nullptr; // programmatic control takes over
    im.enabled.store(true, std::memory_order_relaxed);
}

void
FaultInjection::disarm_all()
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    im.enabled.store(false, std::memory_order_relaxed);
    im.sites.clear();
    im.site_order.clear();
    im.env_error = nullptr;
}

void
FaultInjection::reload_env()
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    im.reload_env_locked();
    if (im.env_error)
        std::rethrow_exception(im.env_error);
}

void
FaultInjection::check_env()
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    if (im.env_error)
        std::rethrow_exception(im.env_error);
}

bool
FaultInjection::should_fail(const char* site)
{
    Impl& im = impl();
    if (!im.enabled.load(std::memory_order_relaxed))
        return false;
    std::lock_guard<std::mutex> lock(im.mu);
    if (im.env_error)
        std::rethrow_exception(im.env_error);
    Impl::Site& s = im.site_locked(site);
    ++s.hits;
    if (!s.armed || s.mode == FaultMode::kDelay)
        return false;
    const bool fire = s.mode == FaultMode::kOnce ? s.hits == s.nth
                                                 : s.hits % s.nth == 0;
    if (fire)
        ++s.fired;
    return fire;
}

void
FaultInjection::maybe_delay(const char* site)
{
    Impl& im = impl();
    if (!im.enabled.load(std::memory_order_relaxed))
        return;
    uint64_t sleep_ms = 0;
    {
        std::lock_guard<std::mutex> lock(im.mu);
        Impl::Site& s = im.site_locked(site);
        ++s.hits;
        if (!s.armed || s.mode != FaultMode::kDelay)
            return;
        ++s.fired;
        sleep_ms = s.nth;
    }
    // Sleep outside the lock: a stalled worker must not stall the registry.
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
}

std::vector<FaultSiteStats>
FaultInjection::stats() const
{
    Impl& im = const_cast<FaultInjection*>(this)->impl();
    std::lock_guard<std::mutex> lock(im.mu);
    std::vector<FaultSiteStats> out;
    out.reserve(im.site_order.size());
    for (const std::string& name : im.site_order) {
        const Impl::Site& s = im.sites.at(name);
        out.push_back({name, s.hits, s.fired});
    }
    return out;
}

uint64_t
FaultInjection::total_fired() const
{
    Impl& im = const_cast<FaultInjection*>(this)->impl();
    std::lock_guard<std::mutex> lock(im.mu);
    uint64_t total = 0;
    for (const auto& [name, s] : im.sites)
        total += s.fired;
    return total;
}

} // namespace mystique
