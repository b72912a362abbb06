#include "core/codegen.h"

#include <filesystem>

#include "common/error.h"
#include "common/fs_util.h"
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
)cpp";

constexpr const char* kReadmeTemplate = R"md(# Generated Mystique benchmark: %WORKLOAD%

This directory is a self-contained benchmark generated from an execution
trace (ET) of `%WORKLOAD%` collected on `%PLATFORM%`.

Files:
- `execution_trace.json` — the operator-granularity ET (paper §3.1)
- `profiler_trace.json` — kernel/stream timeline used for stream mapping (§4.5)
- `replay_plan.json` — the sealed replay plan: cache key, selected replay
  targets, coverage, per-op stream assignments, and the TorchScript-style IR
  compiled for each ATen operator (§4.3.1); its last member, `seal`, hashes
  every byte before it
- `manifest.json` — the package format and the replay config this package
  was generated under, sealed the same way
- `benchmark_main.cpp` — standalone replay program (verifies the package,
  then replays the verified plan)

Build by adding this file to any target linking `mystique`, then run from
this directory. The benchmark is portable: pass a different platform name
(`A100`, `V100`, `CPU`, `NewPlatform`) to evaluate the same workload
elsewhere without regeneration (§6.7).

Integrity: `mystique::core::verify_package(dir)` checks the seals of
`manifest.json` and `replay_plan.json`, then derives the plan key from the
packaged trace, profiler trace and replay config and checks each of its
components against the sealed plan's `key`; see docs/package_format.md in
the mystique repo.
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
make_manifest(const et::ExecutionTrace& trace, const ReplayConfig& cfg)
{
    Json m = Json::object();
    m.set("format", Json("mystique-benchmark-package"));
    m.set("format_version", Json(kPackageFormatVersion));
    m.set("generator", Json(kGeneratorVersion));
    m.set("workload", Json(trace.meta().workload));
    m.set("platform", Json(trace.meta().platform));
    m.set("replay_config", cfg.to_json());

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

    write_text(dir / "execution_trace.json", trace.to_json().dump());
    write_text(dir / "profiler_trace.json", prof.to_json().dump());
    write_text(dir / "replay_plan.json", plan->to_json().dump_sealed(2));
    write_text(dir / "manifest.json", make_manifest(trace, cfg).dump_sealed(2));

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

    // The manifest is sealed like the plan: its replay config holds harness
    // knobs (iterations, seed, ...) that no key component covers.
    Json manifest;
    try {
        manifest = Json::parse_sealed(read_file((dir / "manifest.json").string()));
    } catch (const std::exception& e) {
        fail(std::string("manifest.json unreadable or modified after generation: ") + e.what());
        return v;
    }

    try {
        if (manifest.at("format").as_string() != "mystique-benchmark-package") {
            fail("manifest.json: not a mystique benchmark package");
            return v;
        }
        if (const int64_t version = manifest.at("format_version").as_int();
            version != kPackageFormatVersion) {
            fail("manifest.json: unsupported format_version " + std::to_string(version));
            return v;
        }

        for (const Json& f : manifest.at("files").as_array()) {
            if (!fs::exists(dir / f.as_string()))
                fail("missing file listed in manifest: " + f.as_string());
        }
        if (!v.errors.empty())
            return v;

        // The plan is sealed: no byte of it changed after generation.
        Json plan;
        try {
            plan = Json::parse_sealed(read_file((dir / "replay_plan.json").string()));
        } catch (const std::exception& e) {
            fail(std::string("replay_plan.json (modified after generation?): ") + e.what());
            return v;
        }

        // Derive the key from the packaged files and compare it with the
        // sealed plan's key component by component, naming the file at fault.
        auto trace = std::make_shared<const et::ExecutionTrace>(
            et::ExecutionTrace::load((dir / "execution_trace.json").string()));
        prof::ProfilerTrace prof = prof::ProfilerTrace::from_json(
            Json::parse_file((dir / "profiler_trace.json").string()));
        ReplayConfig config = ReplayConfig::from_json(manifest.at("replay_config"));
        const PlanKey key = PlanKey::from_json(plan.at("key"));
        const PlanKey derived = plan_key(*trace, &prof, config);
        if (derived.trace_fp != key.trace_fp)
            fail("execution_trace.json does not re-hash to the plan's key.trace_fp "
                 "(trace modified after generation?)");
        if (derived.prof_fp != key.prof_fp || derived.has_prof != key.has_prof)
            fail("profiler_trace.json does not re-hash to the plan's key.prof_fp "
                 "(profiler trace modified after generation?)");
        if (derived.config_fp != key.config_fp)
            fail("manifest replay_config does not re-fingerprint to the plan's key.config_fp");
        if (derived.supported_fp != key.supported_fp)
            fail("this process's op registry does not reproduce the plan's key.supported_fp "
                 "(package generated against a different operator set)");

        if (v.errors.empty()) {
            v.trace = std::move(trace);
            v.prof = std::move(prof);
            v.config = std::move(config);
            v.plan = std::move(plan);
        }
    } catch (const std::exception& e) {
        fail(std::string("package verification error: ") + e.what());
    }

    v.ok = v.errors.empty();
    return v;
}

} // namespace mystique::core
