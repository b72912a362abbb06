/// Scenario: large-scale recommendation-model training (§6.6, §7.3).
/// Runs RM across N simulated ranks (model-parallel embedding tables with
/// all_to_all, data-parallel dense layers under DDP), replays all ranks'
/// traces, and then demonstrates scaled-down emulation: reproducing the
/// N-rank iteration time with only two replay ranks.
///
/// Usage: distributed_rm [world_size, 2 to 64; default 8]

#include <cstdio>
#include <optional>

#include "common/stats.h"
#include "common/string_util.h"
#include "core/replayer.h"
#include "workloads/harness.h"

int
main(int argc, char** argv)
{
    using namespace mystique;
    // Each rank is a thread; the scale-down step replays ranks 0 and 1.
    const std::optional<uint64_t> parsed = parse_u64(argc > 1 ? argv[1] : "8");
    if (argc > 2 || !parsed.has_value() || *parsed < 2 || *parsed > 64) {
        std::fprintf(stderr, "usage: %s [world_size, 2 to 64]\n", argv[0]);
        return 2;
    }
    const int world = static_cast<int>(*parsed);

    wl::RunConfig run_cfg;
    run_cfg.mode = fw::ExecMode::kShapeOnly;
    run_cfg.world_size = world;
    run_cfg.iterations = 3;
    const wl::RunResult orig = wl::run_original("rm", {}, run_cfg);
    std::printf("original  %2d ranks: %8.2f ms/iter   (SM %.1f%%, HBM %.1f GB/s)\n", world,
                orig.mean_iter_us / 1e3, orig.rank0().metrics.sm_util_pct,
                orig.rank0().metrics.hbm_gbps);

    // Full-scale replay: one replayer per rank, shared fabric.
    std::vector<const et::ExecutionTrace*> traces;
    std::vector<const prof::ProfilerTrace*> profs;
    for (const auto& r : orig.ranks) {
        traces.push_back(&r.trace);
        profs.push_back(&r.prof);
    }
    core::ReplayConfig cfg;
    cfg.iterations = 3;
    const auto reps = core::Replayer::run_distributed(traces, profs, cfg);
    RunningStat rep_time;
    for (const auto& r : reps)
        rep_time.add(r.mean_iter_us);
    std::printf("replay    %2d ranks: %8.2f ms/iter   (coverage %.1f%% ops)\n", world,
                rep_time.mean() / 1e3, 100.0 * reps[0].coverage.count_fraction);

    // Scale-down: two ranks, comm delays computed at the original scale.
    std::vector<const et::ExecutionTrace*> two_traces{traces[0], traces[1]};
    std::vector<const prof::ProfilerTrace*> two_profs{profs[0], profs[1]};
    core::ReplayConfig scaled_cfg = cfg;
    scaled_cfg.emulate_world_size = -1; // derive group sizes from trace metadata
    const auto scaled = core::Replayer::run_distributed(two_traces, two_profs, scaled_cfg);
    std::printf("scale-down 2 ranks: %8.2f ms/iter   (emulating %d-rank comm, §7.3)\n",
                (scaled[0].mean_iter_us + scaled[1].mean_iter_us) / 2.0 / 1e3, world);
    return 0;
}
