#pragma once

/// @file
/// Process-wide fault-injection registry for robustness testing.
///
/// The persistence and background-scheduling layers claim a hard contract —
/// never a crash, never a torn file, never a wrong plan, no matter how the
/// I/O underneath misbehaves.  This registry lets tests (and the
/// `mystique-fuzz` CLI) *prove* that contract instead of asserting it: code
/// threads named fault sites through its failure-prone steps, and a test (or
/// the `MYST_FAULT` environment variable) arms a site to fail or stall on a
/// chosen hit.
///
/// ## Sites
///
/// The catalog lives in `fault_sites()`; each entry is one `should_fail()` /
/// `maybe_delay()` call threaded through production code:
///
///   fs.write_open    atomic_write_file: temp file cannot be opened
///   fs.write_short   atomic_write_file: write fails partway (short write)
///   fs.write_fsync   atomic_write_file: fsync of the temp file fails
///   fs.rename        atomic_write_file: publish rename fails
///   fs.read          read_file: the read fails mid-flight
///   store.load       PlanStore::load: entry bytes arrive corrupted
///   store.writeback  PlanStore::store: serialization/write step fails
///   pool.background_delay  ThreadPool::background(): worker stalls (ms)
///   sweep.group      ReplayDriver: one group's replay attempt fails
///   journal.write    SweepJournal::append: journal publish fails
///   journal.load     SweepJournal::load: journal bytes arrive unreadable
///
/// ## Arming
///
/// Programmatic (tests): `FaultInjection::instance().arm(site, nth, mode)`.
/// Environment (CLI / CI): `MYST_FAULT=<site>:<nth>[:<mode>]`, comma-
/// separated for multiple sites; parsed once on first hook evaluation after
/// process start.  Modes:
///
///   once   (default) fire exactly on the nth hit of the site
///   every  fire on every nth hit (hits where hit_count % nth == 0)
///   delay  sleep `nth` milliseconds on every hit (delay sites only)
///
/// Disarmed sites cost one relaxed atomic load per hook — the hooks are safe
/// to leave in production code paths.

#include <cstdint>
#include <string>
#include <vector>

namespace mystique {

/// What an armed site does when it fires.
enum class FaultMode { kOnce, kEvery, kDelay };

/// Per-site accounting, for test assertions and the fuzz CLI summary.
struct FaultSiteStats {
    std::string site;
    uint64_t hits = 0;  ///< hook evaluations while the registry was enabled
    uint64_t fired = 0; ///< evaluations that injected the fault
};

/// The canonical site catalog (every site threaded through the tree);
/// tests iterate it to prove each injection point is survivable.
const std::vector<std::string>& fault_sites();

class FaultInjection {
  public:
    static FaultInjection& instance();

    /// Arms @p site: mode kOnce fires exactly on hit @p nth (1-based);
    /// kEvery fires whenever the site's hit count is a multiple of @p nth;
    /// kDelay sleeps @p nth milliseconds on every hit.  Re-arming a site
    /// replaces its spec and resets its counters.  Throws ConfigError for a
    /// site not in fault_sites().
    void arm(const std::string& site, uint64_t nth, FaultMode mode = FaultMode::kOnce);

    /// Disarms every site and clears all counters.  The `MYST_FAULT`
    /// variable is not re-read afterwards — programmatic control wins for
    /// the rest of the process (tests rely on this to run a clean phase
    /// after an injected-failure phase).
    void disarm_all();

    /// True when the armed fault for @p site fires at this hit.  Counts a
    /// hit for @p site whenever any site is armed; a fully disarmed registry
    /// is one relaxed atomic load.  Throws the ConfigError of a malformed
    /// `MYST_FAULT` until arm(), disarm_all() or reload_env().
    bool should_fail(const char* site);

    /// Sleeps the armed delay for @p site (kDelay mode), if any, and counts
    /// it as fired.  No-op for disarmed or fail-mode sites.
    void maybe_delay(const char* site);

    /// Drops every armed site and re-parses `MYST_FAULT` as if the process
    /// were starting fresh: a malformed spec is thrown as ConfigError and kept
    /// for every should_fail() to throw.  Test hook: the lazy first-touch
    /// parse happens once per process, so env-driven tests re-trigger it here.
    void reload_env();

    /// Throws the ConfigError of a malformed `MYST_FAULT` spec that every
    /// should_fail() throws, if one is kept; does nothing otherwise.  Unlike
    /// reload_env() it re-reads nothing and leaves armed sites alone.
    void check_env();

    /// Snapshot of per-site counters, armed or not, in first-hit order.
    std::vector<FaultSiteStats> stats() const;

    /// Total faults injected (failures + delays) since the last disarm_all().
    uint64_t total_fired() const;

  private:
    FaultInjection() = default;
    struct Impl;
    Impl& impl();
};

} // namespace mystique
