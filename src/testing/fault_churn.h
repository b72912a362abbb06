#pragma once

/// @file
/// Fault-injection churn: the durability half of the robustness harness.
///
/// For one registered fault site (common/fault_injection.h), run_churn()
/// hammers a private two-tier PlanCache from N threads — get_or_build /
/// clear / flush_writebacks over fuzzed traces — while the site fires
/// repeatedly, then disarms and verifies the full recovery contract:
///
///  - **never a crash**: no injected fault escapes the cache API as an
///    exception (writeback failures are absorbed, unreadable entries
///    quarantine and rebuild);
///  - **never a torn file**: the store directory holds zero `.tmp.*` files
///    afterwards (`.bad` quarantines are legitimate);
///  - **never a wrong plan**: every plan fetched during churn replays the
///    same trace it was requested for (key identity is re-checked);
///  - **heals**: after one clean rebuild pass, a fresh sweep of every key is
///    served entirely from disk — builds == 0.
///
/// The sweep-resilience sites (`sweep.group`, `journal.write`,
/// `journal.load`) are exercised by a second harness, run_sweep_churn():
/// concurrent ReplayDrivers sweeping a fuzzed database while the site fires,
/// with the analogous contract (no escape, no torn journal, bit-identical
/// heal).  run_churn_site()/run_churn_all() dispatch each site to the harness
/// that actually reaches it.
///
/// Shared by tests/testing/fault_churn_test.cpp and `mystique-fuzz --churn`.

#include <cstdint>
#include <string>
#include <vector>

namespace mystique::testing {

/// Outcome of one site's churn run.
struct ChurnReport {
    std::string site;
    uint64_t operations = 0;   ///< cache fetches completed across all threads
    uint64_t faults_fired = 0; ///< injections this run actually triggered
    uint64_t exceptions = 0;   ///< faults that leaked out of the cache API
    uint64_t tmp_files = 0;    ///< leftover `.tmp.*` turds in the store dir
    uint64_t quarantined = 0;  ///< `.bad` files (allowed; informational)
    uint64_t heal_builds = 0;  ///< builds during the post-heal clean sweep
    bool healed = false;       ///< clean sweep was all disk hits
    std::string detail;        ///< first failure description when !ok()

    bool ok() const { return exceptions == 0 && tmp_files == 0 && healed; }
};

/// Churns @p site over a PlanCache persisted at @p store_dir.  @p seed feeds
/// the trace fuzzer (distinct traces per run are derived from it), so a
/// failing (site, seed) pair reproduces exactly.  Arms the site itself and
/// disarms all sites on return.
ChurnReport run_churn(const std::string& site, const std::string& store_dir,
                      uint64_t seed, int threads = 8, int ops_per_thread = 12);

/// Churns @p site through ReplayDriver database sweeps instead of raw cache
/// traffic — the harness for the sweep-resilience sites (`sweep.group`,
/// `journal.write`, `journal.load`).  @p drivers concurrent drivers, each
/// sweeping a fuzzed database at @p parallelism workers (default 2×4 = 8
/// replay threads) with retries enabled and a shared journal at @p store_dir,
/// while the armed site fires.  The contract mapped onto ChurnReport:
///
///  - **never a crash**: replay_groups absorbs every injected fault
///    (`exceptions` counts escapes);
///  - **never a torn file**: no `.tmp.*` turds next to the journal;
///  - **heals**: after disarming, a fresh no-journal sweep is bit-identical
///    to a reference sweep taken before arming, and a probe sweep over the
///    (possibly quarantined) journal ends with every group ok.
///    `heal_builds` counts the groups still sick after the probe.
ChurnReport run_sweep_churn(const std::string& site, const std::string& store_dir,
                            uint64_t seed, int drivers = 2, int parallelism = 4,
                            int sweeps_per_driver = 3);

/// Dispatches @p site to the harness that exercises it: sweep-resilience
/// sites (`sweep.*`, `journal.*`) go through run_sweep_churn at its default
/// driver counts, everything else through run_churn with @p threads and
/// @p ops_per_thread.
ChurnReport run_churn_site(const std::string& site, const std::string& store_dir,
                           uint64_t seed, int threads = 8, int ops_per_thread = 12);

/// run_churn_site() over every registered fault site; each site gets a
/// private subdirectory of @p store_root.
std::vector<ChurnReport> run_churn_all(const std::string& store_root, uint64_t seed,
                                       int threads = 8, int ops_per_thread = 12);

} // namespace mystique::testing
