/// Scenario: production network debugging (§7.1).  "We have used it to
/// quickly examine and locate network issues in our production environment,
/// by replaying the communication operators exclusively."
///
/// Traces a distributed run once, then replays only the c10d operators under
/// two network conditions — healthy and a degraded inter-node fabric — to
/// show how comms-only replay isolates the network contribution.
///
/// Usage: network_debugging [world_size, 2 to 64; default 4]

#include <cstdio>
#include <optional>

#include "common/string_util.h"
#include "core/replayer.h"
#include "workloads/harness.h"

int
main(int argc, char** argv)
{
    using namespace mystique;
    // Each rank is a thread; one rank has no collective to time.
    const std::optional<uint64_t> parsed = parse_u64(argc > 1 ? argv[1] : "4");
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
    std::printf("traced rm on %d ranks: %.2f ms/iter end-to-end\n", world,
                orig.mean_iter_us / 1e3);

    std::vector<const et::ExecutionTrace*> traces;
    std::vector<const prof::ProfilerTrace*> profs;
    for (const auto& r : orig.ranks) {
        traces.push_back(&r.trace);
        profs.push_back(&r.prof);
    }

    core::ReplayConfig cfg;
    cfg.iterations = 3;
    cfg.filter.only_category = dev::OpCategory::kComm; // comms-only replay

    auto comm_time = [&](const comm::Topology& topo) {
        const auto reps = core::Replayer::run_distributed(traces, profs, cfg, topo);
        double total = 0.0;
        for (const auto& k : reps[0].prof.kernels())
            total += k.dur;
        return total;
    };

    comm::Topology healthy; // NVLink intra-node, 200 Gbps NIC inter-node
    healthy.gpus_per_node = 2; // 4 ranks span two nodes → NIC on the path
    comm::Topology degraded = healthy;
    degraded.inter_node_bw_gbps /= 4.0; // a flapping NIC / congested spine

    const double t_healthy = comm_time(healthy);
    const double t_degraded = comm_time(degraded);
    std::printf("comms-only replay, healthy fabric : %8.2f us of collective time/iter\n",
                t_healthy / 3.0);
    std::printf("comms-only replay, degraded fabric: %8.2f us of collective time/iter\n",
                t_degraded / 3.0);
    std::printf("→ a %.1fx collective-time inflation isolated without re-running the\n"
                "  model or its data pipeline (comms-only subtrace replay, §7.1).\n",
                t_degraded / t_healthy);
    return 0;
}
