/// Reproduces Figure 7: cross-platform validation.  Traces are collected on
/// the A100 *only*; the generated benchmarks then run unchanged on CPU, V100
/// and A100, and their times are compared against the original workload run
/// natively on each platform (normalized per platform).
///
/// ASR and RM run only on the GPU platforms, as in the paper.

#include "bench_common.h"

int
main()
{
    using namespace mystique;
    bench::print_header("Figure 7: Normalized execution time across platforms "
                        "(replay / original, trace from A100)");
    std::printf("%-14s %10s %10s %10s\n", "Model", "CPU", "V100", "A100");
    std::printf("----------------------------------------------------------\n");
    for (const std::string w : {"param_linear", "resnet", "asr", "rm"}) {
        // Trace once on A100.
        const auto traced = wl::run_original(w, {}, bench::bench_run_config("A100"));
        const bool gpu_only = w == "asr" || w == "rm";
        std::printf("%-14s ", bench::pretty_name(w));
        for (const std::string platform : {"CPU", "V100", "A100"}) {
            if (platform == "CPU" && gpu_only) {
                std::printf("%10s ", "n/a");
                continue;
            }
            // Original natively on the target platform...
            const auto orig =
                wl::run_original(w, {}, bench::bench_run_config(platform));
            // ...vs the A100-collected trace replayed there (no regeneration).
            core::ReplayConfig rc = bench::bench_replay_config(platform);
            core::Replayer replayer(traced.rank0().trace, &traced.rank0().prof, rc);
            const auto rep = replayer.run();
            // Calibrate with the target platform's own unsupported-op time,
            // not the A100 trace's: that is what its native original spends
            // outside anything a benchmark can replay.
            const double unsupported_us =
                core::ReplayPlan::build_borrowing(orig.rank0().trace, &orig.rank0().prof, rc)
                    ->coverage()
                    .unsupported_exposed_us;
            const double calibrated = orig.mean_iter_us - unsupported_us;
            std::printf("%10.3f ", rep.mean_iter_us / calibrated);
        }
        std::printf("\n");
    }
    std::printf("\nExpected shape: every ratio ~1.0 on every platform — the benchmark\n"
                "is portable without regeneration (paper Figure 7).\n");
    bench::print_footnote();
    return 0;
}
