#include "testing/fault_churn.h"

#include <atomic>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/fault_injection.h"
#include "core/plan_cache.h"
#include "core/replay_driver.h"
#include "et/trace_db.h"
#include "testing/trace_fuzzer.h"

namespace mystique::testing {

namespace {

/// Distinct traces under churn: enough keys that a capacity-2 cache keeps
/// evicting (every fetch may consult disk), few enough that every key is
/// exercised by every thread.
constexpr int kCases = 3;

const prof::ProfilerTrace*
prof_of(const FuzzedCase& c)
{
    return c.use_prof ? &c.prof : nullptr;
}

} // namespace

ChurnReport
run_churn(const std::string& site, const std::string& store_dir, uint64_t seed,
          int threads, int ops_per_thread)
{
    ChurnReport rep;
    rep.site = site;

    std::vector<FuzzedCase> cases;
    cases.reserve(kCases);
    for (uint64_t i = 0; i < kCases; ++i)
        cases.push_back(generate_case(case_seed(seed, i)));

    // Capacity below the working set: the memory tier thrashes, so disk
    // loads, quarantines and writebacks happen continuously — not just once.
    core::PlanCache cache(2);
    cache.set_store_dir(store_dir);

    FaultInjection& fi = FaultInjection::instance();
    fi.disarm_all();
    if (site == "pool.background_delay")
        fi.arm(site, 5, FaultMode::kDelay); // 5 ms stalls widen race windows
    else
        fi.arm(site, 3, FaultMode::kEvery); // every 3rd hit fails

    std::atomic<uint64_t> ops{0};
    std::atomic<uint64_t> errs{0};
    std::mutex detail_mu;
    std::string first_detail;

    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            for (int i = 0; i < ops_per_thread; ++i) {
                const FuzzedCase& c =
                    cases[static_cast<std::size_t>(t + i) % cases.size()];
                try {
                    const auto plan = cache.get_or_build(c.trace, prof_of(c), c.cfg);
                    // "Never a wrong plan": whatever tier served this — fresh
                    // build, memory hit, disk load after another thread's
                    // writeback — it must be a plan over *this* trace.
                    if (plan == nullptr ||
                        plan->trace().structural_fingerprint() !=
                            c.trace.structural_fingerprint())
                        throw std::runtime_error("cache returned a wrong plan");
                    // Interleave the cache's other mutating entry points so
                    // faults land during clears and flushes too.
                    if (t == 0 && i % 4 == 3)
                        cache.clear();
                    if (t == 1 && i % 5 == 4)
                        cache.flush_writebacks();
                } catch (const std::exception& e) {
                    ++errs;
                    std::lock_guard<std::mutex> lock(detail_mu);
                    if (first_detail.empty())
                        first_detail = std::string("thread ") + std::to_string(t) +
                                       " op " + std::to_string(i) + ": " + e.what();
                }
                ++ops;
            }
        });
    }
    for (std::thread& w : workers)
        w.join();

    rep.operations = ops.load();
    rep.exceptions = errs.load();
    rep.faults_fired = fi.total_fired(); // before disarm_all clears counters
    fi.disarm_all();

    // Heal pass: rebuild every key once (quarantined or never-persisted
    // entries get built and written back), then wait for the writebacks.
    cache.clear();
    for (const FuzzedCase& c : cases)
        cache.get_or_build(c.trace, prof_of(c), c.cfg);
    cache.flush_writebacks();

    // Assert pass: with the store healed, a fresh sweep must be pure disk
    // hits — zero builds.
    cache.clear();
    const uint64_t builds_before = cache.stats().builds;
    for (const FuzzedCase& c : cases)
        cache.get_or_build(c.trace, prof_of(c), c.cfg);
    cache.flush_writebacks();
    rep.heal_builds = cache.stats().builds - builds_before;
    rep.healed = rep.heal_builds == 0;

    // Directory audit: `.tmp.*` turds are forbidden on every failure path;
    // `.bad` quarantines are the designed outcome of unreadable entries.
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(store_dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.find(".tmp.") != std::string::npos)
            ++rep.tmp_files;
        else if (name.size() > 4 && name.compare(name.size() - 4, 4, ".bad") == 0)
            ++rep.quarantined;
    }

    if (!rep.ok() && rep.detail.empty()) {
        if (!first_detail.empty())
            rep.detail = first_detail;
        else if (rep.tmp_files > 0)
            rep.detail = std::to_string(rep.tmp_files) + " leftover .tmp.* file(s)";
        else if (!rep.healed)
            rep.detail = "store did not heal: " + std::to_string(rep.heal_builds) +
                         " build(s) on the post-heal sweep";
    }
    return rep;
}

ChurnReport
run_sweep_churn(const std::string& site, const std::string& store_dir, uint64_t seed,
                int drivers, int parallelism, int sweeps_per_driver)
{
    ChurnReport rep;
    rep.site = site;
    std::filesystem::create_directories(store_dir); // journal home

    // The swept database: each fuzzed trace added i+1 times, so groups carry
    // distinct population weights and the weighted mean exercises real
    // arithmetic, not a uniform average.
    std::vector<FuzzedCase> cases;
    cases.reserve(kCases);
    for (uint64_t i = 0; i < kCases; ++i)
        cases.push_back(generate_case(case_seed(seed, i)));
    et::TraceDatabase db;
    for (std::size_t i = 0; i < cases.size(); ++i)
        for (std::size_t copy = 0; copy <= i; ++copy)
            db.add(cases[i].trace);

    core::ReplayConfig cfg;
    cfg.mode = fw::ExecMode::kShapeOnly;
    cfg.iterations = 2;
    cfg.warmup_iterations = 1;
    cfg.opt_level = 1;

    FaultInjection& fi = FaultInjection::instance();
    fi.disarm_all();

    // Reference sweep with nothing armed and journaling off: the "heals"
    // contract compares against this bitwise.
    core::PlanCache ref_cache(8);
    ref_cache.set_store_dir("");
    core::ReplayDriver ref(cfg, &ref_cache, 1);
    ref.set_journal_dir(std::string());
    const core::DatabaseReplayResult want = ref.replay_groups(db);

    if (site == "pool.background_delay")
        fi.arm(site, 5, FaultMode::kDelay);
    else
        fi.arm(site, 3, FaultMode::kEvery); // every 3rd hit fails

    std::atomic<uint64_t> ops{0};
    std::atomic<uint64_t> errs{0};
    std::mutex detail_mu;
    std::string first_detail;

    // Concurrent drivers share the journal directory — each appends whole
    // lines and never rewrites another's — while each drives its own worker
    // pool, so `drivers × parallelism` replay threads total.
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(drivers));
    for (int d = 0; d < drivers; ++d) {
        workers.emplace_back([&, d] {
            try {
                core::PlanCache cache(8);
                cache.set_store_dir("");
                core::ReplayDriver driver(cfg, &cache,
                                          static_cast<std::size_t>(parallelism));
                driver.set_journal_dir(store_dir);
                driver.set_max_retries(1);
                driver.set_backoff_ms(0);
                for (int s = 0; s < sweeps_per_driver; ++s) {
                    const core::DatabaseReplayResult r = driver.replay_groups(db);
                    ops += r.groups.size();
                }
            } catch (const std::exception& e) {
                ++errs;
                std::lock_guard<std::mutex> lock(detail_mu);
                if (first_detail.empty())
                    first_detail = std::string("driver ") + std::to_string(d) +
                                   " threw: " + e.what();
            }
        });
    }
    for (std::thread& w : workers)
        w.join();

    rep.operations = ops.load();
    rep.exceptions = errs.load();
    rep.faults_fired = fi.total_fired(); // before disarm_all clears counters
    fi.disarm_all();

    // Heal pass 1: a probe sweep over the shared journal gives quarantined
    // fingerprints their healing attempt; with faults disarmed every group
    // must come back ok (fresh, resumed, or healed).
    core::PlanCache probe_cache(8);
    probe_cache.set_store_dir("");
    core::ReplayDriver probe(cfg, &probe_cache, 1);
    probe.set_journal_dir(store_dir);
    probe.set_probe_quarantined(true);
    const core::DatabaseReplayResult probed = probe.replay_groups(db);
    for (const core::GroupReplayResult& g : probed.groups) {
        if (g.status != core::GroupStatus::kOk)
            ++rep.heal_builds; // groups still sick after the probe
    }

    // Heal pass 2: churn must leave no residue in process-global state — a
    // fresh journal-less sweep is bit-identical to the pre-churn reference.
    core::PlanCache clean_cache(8);
    clean_cache.set_store_dir("");
    core::ReplayDriver clean(cfg, &clean_cache, 1);
    clean.set_journal_dir(std::string());
    const core::DatabaseReplayResult got = clean.replay_groups(db);
    bool identical = got.groups.size() == want.groups.size() &&
                     got.weighted_mean_iter_us == want.weighted_mean_iter_us;
    for (std::size_t i = 0; identical && i < got.groups.size(); ++i)
        identical = got.groups[i].result.iter_us == want.groups[i].result.iter_us;
    rep.healed = identical && rep.heal_builds == 0;

    // Directory audit: the journal appends in place and stages nothing, so
    // a `.tmp.*` file is forbidden even with journal.write firing.
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(store_dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.find(".tmp.") != std::string::npos)
            ++rep.tmp_files;
        else if (name.size() > 4 && name.compare(name.size() - 4, 4, ".bad") == 0)
            ++rep.quarantined;
    }

    if (!rep.ok() && rep.detail.empty()) {
        if (!first_detail.empty())
            rep.detail = first_detail;
        else if (rep.tmp_files > 0)
            rep.detail = std::to_string(rep.tmp_files) + " leftover .tmp.* file(s)";
        else if (rep.heal_builds > 0)
            rep.detail = std::to_string(rep.heal_builds) +
                         " group(s) still sick after the probe sweep";
        else if (!rep.healed)
            rep.detail = "post-churn sweep diverges from the pre-churn reference";
    }
    return rep;
}

ChurnReport
run_churn_site(const std::string& site, const std::string& store_dir, uint64_t seed)
{
    if (site.rfind("sweep.", 0) == 0 || site.rfind("journal.", 0) == 0)
        return run_sweep_churn(site, store_dir, seed);
    return run_churn(site, store_dir, seed);
}

std::vector<ChurnReport>
run_churn_all(const std::string& store_root, uint64_t seed, int threads,
              int ops_per_thread)
{
    std::vector<ChurnReport> reports;
    for (const std::string& site : fault_sites()) {
        std::string dir = store_root;
        // One subdirectory per site: audits stay independent.
        std::string sub = site;
        for (char& ch : sub)
            if (ch == '.')
                ch = '_';
        dir += "/" + sub;
        std::filesystem::create_directories(dir);
        if (site.rfind("sweep.", 0) == 0 || site.rfind("journal.", 0) == 0)
            reports.push_back(run_sweep_churn(site, dir, seed));
        else
            reports.push_back(run_churn(site, dir, seed, threads, ops_per_thread));
    }
    return reports;
}

} // namespace mystique::testing
