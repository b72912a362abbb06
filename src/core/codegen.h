#pragma once

/// @file
/// Benchmark generation (§5, §6): packages a trace pair into a self-contained,
/// runnable, *provenance-carrying* benchmark directory —
///
///   <dir>/execution_trace.json   the ET
///   <dir>/profiler_trace.json    the stream-mapping profiler trace
///   <dir>/replay_plan.json       the full ReplayPlan (key, selection,
///                                coverage, per-op streams + IR text),
///                                sealed (Json::dump_sealed)
///   <dir>/manifest.json          the package format, the replay config and
///                                the generator version, sealed
///   <dir>/benchmark_main.cpp     a standalone C++ program against this
///                                library that replays the trace
///   <dir>/README.md              how to build and run it
///
/// The paper's output is "a single PyTorch program"; ours is the exact
/// C++ analogue: a single translation unit plus its data files.
///
/// ## Plan-aware generation
///
/// The replay plan is fetched through the PlanCache, not rebuilt: packaging a
/// trace that was just replayed (the generate_and_share flow, and every
/// database-sweep representative) is a cache hit that performs zero plan
/// builds, and the emitted `replay_plan.json` is the byte-exact serialization
/// of the plan the replay actually ran.  With a disk tier configured
/// (MYST_PLAN_CACHE_DIR), even a fresh process packages an already-swept
/// trace without building.  Package files are written atomically
/// (common/fs_util.h).  See docs/package_format.md for the on-disk schema.
///
/// ## Provenance
///
/// Each fact is stated once: the sealed `replay_plan.json` carries the
/// complete PlanKey (trace structural, supported-OpId-set, ReplayConfig and
/// profiler stream fingerprints), and the sealed `manifest.json` the
/// serialized ReplayConfig, whose harness knobs (iterations, seed, ...) no
/// key component covers.  verify_package() is the one reader of a package:
/// it checks both seals, derives the plan key from the packaged files,
/// checks it against the sealed plan's key and returns what it verified, so
/// a consumer replays the very bytes the checks covered.

#include <memory>
#include <string>
#include <vector>

#include "core/plan_cache.h"
#include "core/replayer.h"

namespace mystique::core {

/// Manifest schema version written by generate_benchmark and required by
/// verify_package.
/// v2: replay_plan.json may carry optimizer output ("fused_groups" +
/// "optimizer"), the replay config serializes "opt_level", and the manifest
/// pins "opt_level" at top level (verified against the embedded config).
/// v3: replay_plan.json carries the executor dependency graph ("dep_graph")
/// and the replay config serializes "async_level".
/// v4: replay_plan.json drops "dep_graph", its seal and the "identity" /
/// "optimizer" blocks, which import derives.
/// v5: the manifest seals replay_plan.json's exact bytes.
/// v6: the manifest drops its second copies of facts the plan key, the
/// replay config and the sealed plan hold ("execution_trace",
/// "profiler_trace", the top-level "opt_level", "coverage").
/// v7: replay_plan.json is sealed (Json::dump_sealed) and holds the only
/// copy of the plan key; the manifest drops its key copy and its seal over
/// the plan.
/// v8: manifest.json is sealed (Json::dump_sealed) too — v7 and older
/// packages are rejected.
inline constexpr int kPackageFormatVersion = 8;
/// Generator identity recorded in the manifest.
inline constexpr const char* kGeneratorVersion = "mystique-codegen/1.0";

/// Files written by generate_benchmark().
struct CodegenResult {
    std::string directory;
    int files_written = 0;
    /// The (cache-shared) plan the package was emitted from.
    std::shared_ptr<const ReplayPlan> plan;
};

/// Generates the benchmark package; throws MystiqueError on I/O failure.
/// The plan is fetched through @p cache (the process-wide PlanCache by
/// default), so packaging a previously replayed trace rebuilds nothing.
CodegenResult generate_benchmark(const std::string& directory,
                                 const et::ExecutionTrace& trace,
                                 const prof::ProfilerTrace& prof, const ReplayConfig& cfg,
                                 PlanCache* cache = &PlanCache::instance());

/// Outcome of verify_package(): ok iff every check passed; errors lists each
/// failed check human-readably.  When ok, the other members are the package
/// as verified — import with `ReplayPlan::from_json(plan, trace)` and replay
/// with `config` instead of reading the files again.
struct PackageVerification {
    bool ok = false;
    std::vector<std::string> errors;
    std::shared_ptr<const et::ExecutionTrace> trace; ///< null unless ok
    prof::ProfilerTrace prof;
    /// Placeholder levels unless ok, set without reading the environment.
    ReplayConfig config{.opt_level = 1, .async_level = 1};
    /// replay_plan.json minus its seal, parsed from the bytes the seal covered.
    Json plan;
};

/// The one reader of a generated package directory; integrity-checks it:
///  - manifest.json passes its seal (Json::parse_sealed), is a v8 package
///    manifest, and every file it lists exists;
///  - replay_plan.json passes its seal (Json::parse_sealed);
///  - plan_key() of the packaged execution trace, profiler trace and replay
///    config equals the sealed plan's key, component by component (this
///    process's op registry must reproduce the supported-set fingerprint).
/// Never throws on a bad package — problems come back as errors.
PackageVerification verify_package(const std::string& directory);

} // namespace mystique::core
