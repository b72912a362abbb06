#include "core/codegen.h"

#include <filesystem>

#include "common/error.h"
#include "common/fs_util.h"
#include "common/hash.h"
#include "common/string_util.h"

namespace mystique::core {

namespace {

constexpr const char* kMainTemplate = R"cpp(/// Generated by mystique::core::generate_benchmark.
///
/// Standalone benchmark replaying a production execution trace.  Build
/// against the mystique library and run from this directory:
///
///   ./benchmark [platform] [iterations]
///
/// Defaults come from the manifest's replay_config, so running with no
/// arguments reproduces the generator's exact configuration.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/codegen.h"
#include "core/replayer.h"
#include "et/trace.h"
#include "profiler/profiler.h"

int
main(int argc, char** argv)
{
    using namespace mystique;

    // Provenance gate: refuse to report numbers from a package whose traces
    // no longer match the fingerprints they were generated under.
    const core::PackageVerification v = core::verify_package(".");
    if (!v.ok) {
        for (const auto& e : v.errors)
            std::fprintf(stderr, "package verification failed: %s\n", e.c_str());
        return 1;
    }

    core::ReplayConfig cfg = core::ReplayConfig::from_json(
        Json::parse_file("manifest.json").at("replay_config"));
    if (argc > 1)
        cfg.platform = argv[1];
    if (argc > 2)
        cfg.iterations = std::atoi(argv[2]);

    const et::ExecutionTrace trace = et::ExecutionTrace::load("execution_trace.json");
    const prof::ProfilerTrace prof =
        prof::ProfilerTrace::from_json(Json::parse_file("profiler_trace.json"));

    // Import the packaged plan instead of rebuilding it: on the packaged
    // platform the cache fetch below is a pure hit (zero plan builds).
    // Overriding the platform changes the plan key (§6.7 portability), so
    // only then is a fresh plan built.
    core::PlanCache::instance().insert(
        core::ReplayPlan::from_json(Json::parse_file("replay_plan.json"), trace));
    core::Replayer replayer(
        core::PlanCache::instance().get_or_build(trace, &prof, cfg), cfg);
    core::ReplayResult result = replayer.run();

    std::printf("workload   : %s\n", trace.meta().workload.c_str());
    std::printf("platform   : %s\n", cfg.platform.c_str());
    std::printf("iteration  : %.3f ms\n", result.mean_iter_us / 1e3);
    std::printf("SM util    : %.1f %%\n", result.metrics.sm_util_pct);
    std::printf("HBM bw     : %.1f GB/s\n", result.metrics.hbm_gbps);
    std::printf("GPU power  : %.1f W\n", result.metrics.power_w);
    std::printf("coverage   : %.1f %% ops, %.1f %% time\n",
                100.0 * result.coverage.count_fraction,
                100.0 * result.coverage.time_fraction);
    return 0;
}
)cpp";

constexpr const char* kReadmeTemplate = R"md(# Generated Mystique benchmark: %WORKLOAD%

This directory is a self-contained benchmark generated from an execution
trace (ET) of `%WORKLOAD%` collected on `%PLATFORM%`.

Files:
- `execution_trace.json` — the operator-granularity ET (paper §3.1)
- `profiler_trace.json` — kernel/stream timeline used for stream mapping (§4.5)
- `replay_plan.json` — the serialized replay plan: cache key, selected replay
  targets, coverage, per-op stream assignments, and the TorchScript-style IR
  compiled for each ATen operator (§4.3.1)
- `manifest.json` — provenance: the plan-key fingerprints this package was
  generated under, the replay config, and coverage stats
- `benchmark_main.cpp` — standalone replay program (verifies the manifest
  before replaying)

Build by adding this file to any target linking `mystique`, then run from
this directory. The benchmark is portable: pass a different platform name
(`A100`, `V100`, `CPU`, `NewPlatform`) to evaluate the same workload
elsewhere without regeneration (§6.7).

Integrity: `mystique::core::verify_package(dir)` re-derives the trace,
profiler, and config fingerprints from the packaged files and checks them
against `manifest.json`; see docs/package_format.md in the mystique repo.
)md";

/// Package files are published atomically (common/fs_util.h): a consumer
/// pointed at a package directory mid-generation can see missing files —
/// which verify_package reports — but never torn ones.
void
write_text(const std::filesystem::path& path, std::string_view text)
{
    atomic_write_file(path.string(), text);
}

void
replace_all_occurrences(std::string& text, const std::string& needle,
                        const std::string& value)
{
    std::size_t pos = 0;
    while ((pos = text.find(needle, pos)) != std::string::npos) {
        text.replace(pos, needle.size(), value);
        pos += value.size();
    }
}

constexpr const char* kPackageFiles[] = {
    "execution_trace.json", "profiler_trace.json", "replay_plan.json",
    "manifest.json",        "benchmark_main.cpp", "README.md",
};

Json
make_manifest(const et::ExecutionTrace& trace, const prof::ProfilerTrace& prof,
              const ReplayConfig& cfg, const Json& plan_json, std::string_view plan_text)
{
    Json m = Json::object();
    m.set("format", Json("mystique-benchmark-package"));
    m.set("format_version", Json(kPackageFormatVersion));
    m.set("generator", Json(kGeneratorVersion));
    m.set("workload", Json(trace.meta().workload));
    m.set("platform", Json(trace.meta().platform));

    // The full plan-cache key: what makes this package *this* benchmark.
    m.set("plan_key", plan_json.at("key"));
    // The seal over replay_plan.json's exact bytes: no fingerprint covers
    // what the plan document records per op (streams, kinds, IR).
    m.set("plan_hash", Json(std::to_string(hash_bytes(plan_text))));

    Json trace_j = Json::object();
    trace_j.set("structural_fingerprint", Json(std::to_string(trace.structural_fingerprint())));
    trace_j.set("op_mix_fingerprint", Json(std::to_string(trace.fingerprint())));
    trace_j.set("nodes", Json(static_cast<int64_t>(trace.size())));
    m.set("execution_trace", std::move(trace_j));

    Json prof_j = Json::object();
    prof_j.set("replay_fingerprint", Json(std::to_string(prof.replay_fingerprint())));
    m.set("profiler_trace", std::move(prof_j));

    m.set("replay_config", cfg.to_json());
    // Pinned at top level so a consumer can see at a glance (and verify)
    // whether the packaged plan was optimizer-shaped or verbatim.
    m.set("opt_level", Json(cfg.opt_level));
    // Coverage lives canonically in replay_plan.json; the manifest copy is
    // the quick-look summary, equal by construction.
    m.set("coverage", plan_json.at("coverage"));

    Json files = Json::array();
    for (const char* f : kPackageFiles)
        files.push_back(Json(f));
    m.set("files", std::move(files));
    return m;
}

} // namespace

CodegenResult
generate_benchmark(const std::string& directory, const et::ExecutionTrace& trace,
                   const prof::ProfilerTrace& prof, const ReplayConfig& cfg,
                   PlanCache* cache)
{
    MYST_CHECK(cache != nullptr);
    namespace fs = std::filesystem;
    fs::create_directories(directory);
    const fs::path dir(directory);

    // The plan comes through the cache: packaging a trace that was just
    // replayed (or swept) reuses the plan that replay built — codegen on a
    // warm cache performs zero plan builds.
    const std::shared_ptr<const ReplayPlan> plan = cache->get_or_build(trace, &prof, cfg);
    const Json plan_json = plan->to_json();
    const std::string plan_text = plan_json.dump(2);

    write_text(dir / "execution_trace.json", trace.to_json().dump());
    write_text(dir / "profiler_trace.json", prof.to_json().dump());
    write_text(dir / "replay_plan.json", plan_text);
    write_text(dir / "manifest.json",
               make_manifest(trace, prof, cfg, plan_json, plan_text).dump(2));

    // benchmark_main.cpp needs no substitutions: its defaults come from the
    // manifest at runtime, keeping the package's config in one place.
    write_text(dir / "benchmark_main.cpp", kMainTemplate);

    std::string readme = kReadmeTemplate;
    replace_all_occurrences(readme, "%WORKLOAD%", trace.meta().workload);
    replace_all_occurrences(readme, "%PLATFORM%", trace.meta().platform);
    write_text(dir / "README.md", readme);

    CodegenResult res;
    res.directory = directory;
    res.files_written = static_cast<int>(std::size(kPackageFiles));
    res.plan = plan;
    return res;
}

PackageVerification
verify_package(const std::string& directory)
{
    namespace fs = std::filesystem;
    PackageVerification v;
    const fs::path dir(directory);
    auto fail = [&v](std::string msg) { v.errors.push_back(std::move(msg)); };

    Json manifest;
    try {
        manifest = Json::parse_file((dir / "manifest.json").string());
    } catch (const std::exception& e) {
        fail(std::string("manifest.json unreadable: ") + e.what());
        return v;
    }

    try {
        if (manifest.get_string("format", "") != "mystique-benchmark-package") {
            fail("manifest.json: not a mystique benchmark package");
            return v;
        }
        if (manifest.get_int("format_version", 0) != kPackageFormatVersion) {
            fail("manifest.json: unsupported format_version " +
                 std::to_string(manifest.get_int("format_version", 0)));
            return v;
        }

        for (const Json& f : manifest.at("files").as_array()) {
            if (!fs::exists(dir / f.as_string()))
                fail("missing file listed in manifest: " + f.as_string());
        }
        if (!v.errors.empty())
            return v;

        const PlanKey key = PlanKey::from_json(manifest.at("plan_key"));

        // Re-derive the trace fingerprints from the packaged ET.
        const et::ExecutionTrace trace =
            et::ExecutionTrace::load((dir / "execution_trace.json").string());
        const Json& trace_j = manifest.at("execution_trace");
        if (std::to_string(trace.structural_fingerprint()) !=
            trace_j.at("structural_fingerprint").as_string())
            fail("execution_trace.json does not match the manifest's structural "
                 "fingerprint (trace modified after generation?)");
        if (std::to_string(trace.fingerprint()) !=
            trace_j.at("op_mix_fingerprint").as_string())
            fail("execution_trace.json does not match the manifest's operator-mix "
                 "fingerprint");
        if (std::to_string(trace.structural_fingerprint()) !=
            manifest.at("plan_key").at("trace_fp").as_string())
            fail("manifest plan_key.trace_fp disagrees with the packaged trace");

        // Re-derive the profiler stream fingerprint.
        const prof::ProfilerTrace prof = prof::ProfilerTrace::from_json(
            Json::parse_file((dir / "profiler_trace.json").string()));
        if (std::to_string(prof.replay_fingerprint()) !=
            manifest.at("profiler_trace").at("replay_fingerprint").as_string())
            fail("profiler_trace.json does not match the manifest's stream "
                 "fingerprint (profiler trace modified after generation?)");
        if (key.has_prof && key.prof_fp != prof.replay_fingerprint())
            fail("manifest plan_key.prof_fp disagrees with the packaged profiler "
                 "trace");

        // Re-derive the config and supported-set fingerprints.
        const ReplayConfig cfg = ReplayConfig::from_json(manifest.at("replay_config"));
        if (cfg.fingerprint() != key.config_fp)
            fail("manifest replay_config does not re-fingerprint to plan_key.config_fp");
        if (supported_set_fingerprint(cfg.custom_ops) != key.supported_fp)
            fail("this process's op registry does not reproduce plan_key.supported_fp "
                 "(package generated against a different operator set)");
        if (static_cast<int>(manifest.get_int("opt_level", -1)) != cfg.opt_level)
            fail("manifest opt_level disagrees with the embedded replay_config "
                 "(optimizer provenance modified after generation?)");

        // The packaged plan must be the sealed bytes, with the same identity
        // and coverage.
        const std::string plan_text = read_file((dir / "replay_plan.json").string());
        if (std::to_string(hash_bytes(plan_text)) != manifest.at("plan_hash").as_string())
            fail("replay_plan.json does not match the manifest's plan_hash (plan "
                 "modified after generation?)");
        const Json plan_j = Json::parse(plan_text);
        if (PlanKey::from_json(plan_j.at("key")) != key)
            fail("replay_plan.json carries a different plan key than the manifest");
        if (plan_j.at("coverage") != manifest.at("coverage"))
            fail("replay_plan.json coverage disagrees with the manifest");
    } catch (const std::exception& e) {
        fail(std::string("package verification error: ") + e.what());
    }

    v.ok = v.errors.empty();
    return v;
}

} // namespace mystique::core
