/// A file-oriented CLI over the library — the day-to-day driver a fleet
/// engineer would use against a trace database:
///
///   trace_tool collect  <workload> <out_dir> [platform] [world]
///       runs a workload on `world` ranks (1 to 64, default 1) and writes
///       per-rank ET + profiler JSON files
///   trace_tool stats    <et.json> [prof.json]
///       prints the operator-level summary (§8.2 analyzer)
///   trace_tool validate <et.json>
///       runs the ET builder's structural validation
///   trace_tool replay   <et.json> [prof.json] [platform]
///       replays the trace and prints timing/coverage/metrics
///   trace_tool obfuscate <et.json> <prof.json> <out_et.json>
///       writes the IP-protected trace (§8.4)

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>

#include "common/string_util.h"
#include "core/obfuscator.h"
#include "core/replayer.h"
#include "et/trace_db.h"
#include "et/trace_stats.h"
#include "workloads/harness.h"

namespace {

using namespace mystique;

int
cmd_collect(int argc, char** argv)
{
    // Each rank is a thread.
    const std::optional<uint64_t> world = parse_u64(argc > 3 ? argv[3] : "1");
    if (argc < 2 || argc > 4 || !world.has_value() || *world < 1 || *world > 64) {
        std::fprintf(stderr, "usage: trace_tool collect <workload> <out_dir> "
                             "[platform] [world, 1 to 64]\n");
        return 2;
    }
    const std::string workload = argv[0];
    const std::string out_dir = argv[1];
    wl::RunConfig cfg;
    cfg.mode = fw::ExecMode::kShapeOnly;
    cfg.platform = argc > 2 ? argv[2] : "A100";
    cfg.world_size = static_cast<int>(*world);
    std::filesystem::create_directories(out_dir);
    const wl::RunResult res = wl::run_original(workload, {}, cfg);
    for (std::size_t rank = 0; rank < res.ranks.size(); ++rank) {
        const std::string stem =
            out_dir + "/" + workload + "_rank" + std::to_string(rank);
        res.ranks[rank].trace.save(stem + ".et.json");
        res.ranks[rank].prof.to_json().dump_file(stem + ".prof.json");
        std::printf("wrote %s.{et,prof}.json  (%zu nodes)\n", stem.c_str(),
                    res.ranks[rank].trace.size());
    }
    std::printf("mean iteration: %.3f ms\n", res.mean_iter_us / 1e3);
    return 0;
}

int
cmd_stats(int argc, char** argv)
{
    if (argc < 1) {
        std::fprintf(stderr, "usage: trace_tool stats <et.json> [prof.json]\n");
        return 2;
    }
    const et::ExecutionTrace trace = et::ExecutionTrace::load(argv[0]);
    prof::ProfilerTrace prof;
    const bool have_prof = argc > 1;
    if (have_prof)
        prof = prof::ProfilerTrace::from_json(Json::parse_file(argv[1]));
    const et::TraceStats stats =
        et::TraceStats::build(trace, have_prof ? &prof : nullptr);
    std::printf("workload=%s platform=%s rank=%d/%d  ops=%lld  kernel=%.2f ms\n",
                trace.meta().workload.c_str(), trace.meta().platform.c_str(),
                trace.meta().rank, trace.meta().world_size,
                static_cast<long long>(stats.total_ops()),
                stats.total_kernel_us() / 1e3);
    std::printf("%-44s %-7s %7s %12s %12s\n", "op", "cat", "count", "in-elems",
                "kernel-us");
    for (const auto& row : stats.ops()) {
        std::printf("%-44s %-7s %7lld %12lld %12.1f\n", row.name.c_str(),
                    dev::to_string(row.category), static_cast<long long>(row.count),
                    static_cast<long long>(row.input_elements), row.kernel_time_us);
    }
    return 0;
}

int
cmd_validate(int argc, char** argv)
{
    if (argc < 1) {
        std::fprintf(stderr, "usage: trace_tool validate <et.json>\n");
        return 2;
    }
    try {
        const et::ExecutionTrace trace = et::ExecutionTrace::load(argv[0]);
        const et::ExecutionTrace built = et::build_trace(trace);
        std::printf("OK: %zu nodes, fingerprint %016llx\n", built.size(),
                    static_cast<unsigned long long>(built.fingerprint()));
        return 0;
    } catch (const MystiqueError& e) {
        std::fprintf(stderr, "INVALID: %s\n", e.what());
        return 1;
    }
}

int
cmd_replay(int argc, char** argv)
{
    if (argc < 1) {
        std::fprintf(stderr, "usage: trace_tool replay <et.json> [prof.json] "
                             "[platform]\n");
        return 2;
    }
    const et::ExecutionTrace trace = et::ExecutionTrace::load(argv[0]);
    prof::ProfilerTrace prof;
    const bool have_prof = argc > 1 && std::strcmp(argv[1], "-") != 0;
    if (have_prof)
        prof = prof::ProfilerTrace::from_json(Json::parse_file(argv[1]));
    core::ReplayConfig cfg;
    if (argc > 2)
        cfg.platform = argv[2];
    core::Replayer replayer(trace, have_prof ? &prof : nullptr, cfg);
    const core::ReplayResult res = replayer.run();
    std::printf("replayed %s on %s: %.3f ms/iter\n", trace.meta().workload.c_str(),
                cfg.platform.c_str(), res.mean_iter_us / 1e3);
    std::printf("coverage: %.1f%% ops, %.1f%% time\n",
                100.0 * res.coverage.count_fraction, 100.0 * res.coverage.time_fraction);
    std::printf("SM %.1f%%  HBM %.1f GB/s  power %.1f W\n", res.metrics.sm_util_pct,
                res.metrics.hbm_gbps, res.metrics.power_w);
    for (const auto& [name, count] : res.coverage.unsupported_by_name)
        std::printf("unsupported: %s x%lld (register via CustomOpRegistry)\n",
                    name.c_str(), static_cast<long long>(count));
    return 0;
}

int
cmd_obfuscate(int argc, char** argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: trace_tool obfuscate <et.json> <prof.json> <out.json>\n");
        return 2;
    }
    const et::ExecutionTrace trace = et::ExecutionTrace::load(argv[0]);
    const prof::ProfilerTrace prof =
        prof::ProfilerTrace::from_json(Json::parse_file(argv[1]));
    const et::ExecutionTrace obf = core::obfuscate(trace, prof);
    obf.save(argv[2]);
    std::printf("obfuscated trace written to %s (%zu nodes)\n", argv[2], obf.size());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: trace_tool <collect|stats|validate|replay|obfuscate> ...\n");
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        if (cmd == "collect")
            return cmd_collect(argc - 2, argv + 2);
        if (cmd == "stats")
            return cmd_stats(argc - 2, argv + 2);
        if (cmd == "validate")
            return cmd_validate(argc - 2, argv + 2);
        if (cmd == "replay")
            return cmd_replay(argc - 2, argv + 2);
        if (cmd == "obfuscate")
            return cmd_obfuscate(argc - 2, argv + 2);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return 2;
}
