/// Scenario: share a production workload with an external hardware vendor
/// (§8.4).  The model's custom operators are proprietary, so the trace is
/// obfuscated — annotation names anonymized, IP-sensitive custom subtrees
/// replaced by performance-equivalent public proxy blocks — and then packaged
/// as a self-contained benchmark directory the vendor can build and run.
///
/// Usage: generate_and_share [workload] [output_dir]

#include <cstdio>
#include <string>

#include "common/stats.h"
#include "core/codegen.h"
#include "core/obfuscator.h"
#include "core/replayer.h"
#include "framework/op_registry.h"
#include "workloads/harness.h"

int
main(int argc, char** argv)
{
    using namespace mystique;
    const std::string workload = argc > 1 ? argv[1] : "rm";
    const std::string out_dir = argc > 2 ? argv[2] : "shared_benchmark";

    // 1. Trace the production workload.
    wl::RunConfig run_cfg;
    run_cfg.mode = fw::ExecMode::kShapeOnly;
    run_cfg.iterations = 3;
    const wl::RunResult orig = wl::run_original(workload, {}, run_cfg);
    const wl::RankResult& r0 = orig.rank0();
    std::printf("traced %s: %zu nodes, %.2f ms/iter\n", workload.c_str(), r0.trace.size(),
                orig.mean_iter_us / 1e3);

    // 2. Obfuscate: anonymize annotations, proxy the custom ops.
    const et::ExecutionTrace obf = core::obfuscate(r0.trace, r0.prof);
    int proxies = 0;
    for (const auto& n : obf.nodes())
        proxies += n.is_op() && et::resolve_op_id(n) == MYST_OP("obf::proxy") ? 1 : 0;
    std::printf("obfuscated: %zu nodes, %d custom subtrees replaced by obf::proxy\n",
                obf.size(), proxies);

    // 3. Verify the obfuscated trace still reproduces performance.  The
    //    obfuscated replay goes through the process-wide PlanCache so step 4
    //    can reuse the very plan this replay built.
    core::ReplayConfig replay_cfg;
    replay_cfg.iterations = 3;
    core::Replayer original_replay(r0.trace, &r0.prof, replay_cfg);
    core::Replayer obfuscated_replay(
        core::PlanCache::instance().get_or_build(obf, &r0.prof, replay_cfg), replay_cfg);
    const double t_orig = original_replay.run().mean_iter_us;
    const double t_obf = obfuscated_replay.run().mean_iter_us;
    std::printf("replay: original trace %.2f ms vs obfuscated %.2f ms (%.1f%% apart)\n",
                t_orig / 1e3, t_obf / 1e3, 100.0 * relative_error(t_obf, t_orig));

    // 4. Package the shareable benchmark.  The plan comes from the cache
    //    (zero rebuilds after step 3); manifest.json and replay_plan.json
    //    are sealed, and the plan carries the plan key, so the vendor can
    //    prove the package is untampered.
    const core::PlanCacheStats before = core::PlanCache::instance().stats();
    const core::CodegenResult res =
        core::generate_benchmark(out_dir, obf, r0.prof, replay_cfg);
    const core::PlanCacheStats after = core::PlanCache::instance().stats();
    std::printf("benchmark package written to %s/ (%d files, %llu plan builds)\n",
                res.directory.c_str(), res.files_written,
                static_cast<unsigned long long>(after.misses - before.misses));

    // 5. Open the package as the vendor will before shipping it: it must
    //    verify, and the plan it imports must be the plan that was packaged.
    const core::PackageVerification pkg = core::verify_package(out_dir);
    if (!pkg.ok) {
        for (const auto& e : pkg.errors)
            std::fprintf(stderr, "package verification failed: %s\n", e.c_str());
        return 1;
    }
    if (core::ReplayPlan::from_json(pkg.plan, pkg.trace)->to_json() != res.plan->to_json()) {
        std::fprintf(stderr, "package verification failed: the imported plan differs\n");
        return 1;
    }
    std::printf("package verified: both seals hold, the derived plan key matches the "
                "sealed plan's, and the plan imports as packaged\n");
    return 0;
}
