/// Generated by mystique::core::generate_benchmark.
///
/// Standalone benchmark replaying a production execution trace.  Build
/// against the mystique library and run from this directory:
///
///   ./benchmark [platform] [iterations]
///
/// Defaults come from the manifest's replay_config, so running with no
/// arguments reproduces the generator's exact configuration.  Exit status:
/// 0 replayed, 1 verification or replay failed, 2 usage error.

#include <climits>
#include <cstdio>
#include <exception>
#include <optional>

#include "common/string_util.h"
#include "core/codegen.h"
#include "core/replayer.h"

int
main(int argc, char** argv)
{
    using namespace mystique;

    const std::optional<uint64_t> iterations = parse_u64(argc > 2 ? argv[2] : "1");
    if (argc > 3 || !iterations.has_value() || *iterations == 0 ||
        *iterations > static_cast<uint64_t>(INT_MAX)) {
        std::fprintf(stderr, "usage: %s [platform] [iterations, 1 to %d]\n", argv[0], INT_MAX);
        return 2;
    }

    // Provenance gate: refuse to report numbers from a package whose files
    // no longer match the sealed plan they were generated with.  Everything
    // below replays what the gate verified; no package file is read twice.
    const core::PackageVerification pkg = core::verify_package(".");
    if (!pkg.ok) {
        for (const auto& e : pkg.errors)
            std::fprintf(stderr, "package verification failed: %s\n", e.c_str());
        return 1;
    }

    try {
        core::ReplayConfig cfg = pkg.config;
        if (argc > 1)
            cfg.platform = argv[1];
        if (argc > 2)
            cfg.iterations = static_cast<int>(*iterations);

        // Import the packaged plan instead of rebuilding it: on the packaged
        // platform the cache fetch below is a pure hit (zero plan builds).
        // Overriding the platform changes the plan key (§6.7 portability), so
        // only then is a fresh plan built.
        core::PlanCache::instance().insert(core::ReplayPlan::from_json(pkg.plan, pkg.trace));
        core::Replayer replayer(
            core::PlanCache::instance().get_or_build(pkg.trace, &pkg.prof, cfg), cfg);
        core::ReplayResult result = replayer.run();

        std::printf("workload   : %s\n", pkg.trace->meta().workload.c_str());
        std::printf("platform   : %s\n", cfg.platform.c_str());
        std::printf("iteration  : %.3f ms\n", result.mean_iter_us / 1e3);
        std::printf("SM util    : %.1f %%\n", result.metrics.sm_util_pct);
        std::printf("HBM bw     : %.1f GB/s\n", result.metrics.hbm_gbps);
        std::printf("GPU power  : %.1f W\n", result.metrics.power_w);
        std::printf("coverage   : %.1f %% ops, %.1f %% time\n",
                    100.0 * result.coverage.count_fraction,
                    100.0 * result.coverage.time_fraction);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "benchmark failed: %s\n", e.what());
        return 1;
    }
    return 0;
}
