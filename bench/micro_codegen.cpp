/// @file
/// Micro-benchmark and regression gate for plan-aware benchmark generation
/// plus the pooled distributed replay path.
///
/// Measurements, printed human-readably plus one JSON summary line
/// (`micro_codegen_json: {...}`) that scripts/ci.sh surfaces:
///
///   1. cold codegen — generate_benchmark on an empty PlanCache (pays one
///      plan build on top of serialization and file I/O);
///   2. warm codegen — the same package again: the plan is a cache hit, so
///      the package is re-emitted with ZERO plan builds (the
///      generate-after-replay flow of §8.4);
///   3. verify — verify_package deriving the plan key and re-hashing the plan;
///   4. distributed replay, first vs repeat — run_distributed on the shared
///      ThreadPool: the repeat call reuses pool threads and per-rank
///      sessions (reset, arenas kept) instead of spawning and cold-starting
///      per rank.
///
/// Exits nonzero unless warm codegen performs zero plan builds and is no
/// slower than cold codegen (with slack for I/O jitter), a fresh package
/// verifies clean, and the repeated distributed replay is bit-identical to
/// the first.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/json.h"
#include "core/codegen.h"
#include "core/plan_cache.h"

namespace {

using namespace mystique;
using bench::now_us;

} // namespace

int
main()
{
    namespace fs = std::filesystem;
    bench::print_header("micro_codegen: plan-aware packaging & pooled distributed replay");

    wl::RunConfig run_cfg;
    run_cfg.mode = fw::ExecMode::kShapeOnly;
    run_cfg.warmup_iterations = 1;
    run_cfg.iterations = 2;
    const wl::RunResult rm = wl::run_original("rm", {}, run_cfg);
    const auto& r0 = rm.rank0();

    core::ReplayConfig cfg = bench::bench_replay_config();
    cfg.iterations = 2;

    const std::string dir =
        (fs::temp_directory_path() / "mystique_micro_codegen").string();
    fs::remove_all(dir);

    // ---- 1. cold codegen (one plan build) --------------------------------
    core::PlanCache cache(16);
    const double c0 = now_us();
    const core::CodegenResult cold = core::generate_benchmark(dir, r0.trace, r0.prof,
                                                              cfg, &cache);
    const double cold_us = now_us() - c0;
    const core::PlanCacheStats cold_stats = cache.stats();

    // ---- 2. warm codegen (zero plan builds) ------------------------------
    constexpr int kWarmReps = 5;
    double warm_us = 1e300;
    for (int i = 0; i < kWarmReps; ++i) {
        const double w0 = now_us();
        (void)core::generate_benchmark(dir, r0.trace, r0.prof, cfg, &cache);
        const double dt = now_us() - w0;
        if (dt < warm_us)
            warm_us = dt;
    }
    const core::PlanCacheStats warm_stats = cache.stats();

    // ---- 3. verification --------------------------------------------------
    const double v0 = now_us();
    const core::PackageVerification verification = core::verify_package(dir);
    const double verify_us = now_us() - v0;

    // ---- 4. distributed replay on the shared pool ------------------------
    wl::RunConfig dist_cfg = run_cfg;
    dist_cfg.world_size = 2;
    const wl::RunResult dist = wl::run_original("param_linear", {}, dist_cfg);
    std::vector<const et::ExecutionTrace*> traces;
    std::vector<const prof::ProfilerTrace*> profs;
    for (const auto& r : dist.ranks) {
        traces.push_back(&r.trace);
        profs.push_back(&r.prof);
    }
    const double d0 = now_us();
    const auto first = core::Replayer::run_distributed(traces, profs, cfg);
    const double dist_first_us = now_us() - d0;
    const double d1 = now_us();
    const auto repeat = core::Replayer::run_distributed(traces, profs, cfg);
    const double dist_repeat_us = now_us() - d1;

    std::printf("  %-38s %12.1f us   (%llu plan build)\n", "cold codegen (rm package)",
                cold_us, static_cast<unsigned long long>(cold_stats.misses));
    std::printf("  %-38s %12.1f us   (0 plan builds, best of %d)\n",
                "warm codegen (plan cache hit)", warm_us, kWarmReps);
    std::printf("  %-38s %12.1f us   (%s)\n", "verify_package", verify_us,
                verification.ok ? "ok" : "FAILED");
    std::printf("  %-38s %12.1f us\n", "run_distributed, first (2 ranks)",
                dist_first_us);
    std::printf("  %-38s %12.1f us   (pool + sessions reused)\n",
                "run_distributed, repeat", dist_repeat_us);

    Json j = Json::object();
    j.set("cold_codegen_us", Json(cold_us));
    j.set("warm_codegen_us", Json(warm_us));
    j.set("verify_us", Json(verify_us));
    j.set("warm_plan_builds",
          Json(static_cast<int64_t>(warm_stats.misses - cold_stats.misses)));
    j.set("dist_first_us", Json(dist_first_us));
    j.set("dist_repeat_us", Json(dist_repeat_us));
    j.set("files_written", Json(static_cast<int64_t>(cold.files_written)));
    std::printf("micro_codegen_json: %s\n", j.dump().c_str());

    // ---- gates ------------------------------------------------------------
    bool ok = true;
    if (cold_stats.misses != 1) {
        std::printf("FAIL: cold codegen should pay exactly one plan build (got %llu)\n",
                    static_cast<unsigned long long>(cold_stats.misses));
        ok = false;
    }
    if (warm_stats.misses != cold_stats.misses) {
        std::printf("FAIL: warm codegen rebuilt the plan (%llu -> %llu misses)\n",
                    static_cast<unsigned long long>(cold_stats.misses),
                    static_cast<unsigned long long>(warm_stats.misses));
        ok = false;
    }
    if (warm_stats.hits < kWarmReps) {
        std::printf("FAIL: warm codegen did not hit the plan cache (%llu hits)\n",
                    static_cast<unsigned long long>(warm_stats.hits));
        ok = false;
    }
    // Warm must not be slower than cold: both pay serialization + I/O, cold
    // additionally pays the plan build.  1.25x slack absorbs filesystem
    // jitter on loaded CI hosts.
    if (warm_us > cold_us * 1.25) {
        std::printf("FAIL: warm codegen (%.1f us) slower than cold (%.1f us)\n", warm_us,
                    cold_us);
        ok = false;
    }
    if (!verification.ok) {
        for (const auto& e : verification.errors)
            std::printf("FAIL: fresh package does not verify: %s\n", e.c_str());
        ok = false;
    }
    // The pooled repeat call must reproduce the first bit-for-bit.
    if (repeat.size() != first.size()) {
        std::printf("FAIL: repeated distributed replay changed world size\n");
        ok = false;
    } else {
        for (std::size_t r = 0; r < first.size(); ++r) {
            if (repeat[r].mean_iter_us != first[r].mean_iter_us ||
                repeat[r].iter_us != first[r].iter_us) {
                std::printf("FAIL: pooled repeat diverged from first call at rank %zu\n",
                            r);
                ok = false;
            }
        }
    }

    fs::remove_all(dir);
    if (!ok)
        return 1;
    std::printf("OK: warm codegen emits packages with zero plan builds, fresh packages "
                "verify, and pooled distributed replays are repeatable\n");
    return 0;
}
