#pragma once

/// @file
/// Benchmark generation (§5, §6): packages a trace pair into a self-contained,
/// runnable, *provenance-carrying* benchmark directory —
///
///   <dir>/execution_trace.json   the ET
///   <dir>/profiler_trace.json    the stream-mapping profiler trace
///   <dir>/replay_plan.json       the full ReplayPlan (key, selection,
///                                coverage, per-op streams + IR text)
///   <dir>/manifest.json          provenance: plan-key fingerprints, replay
///                                config, coverage, generator version
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
/// ## Provenance manifest
///
/// `manifest.json` records the complete PlanKey — trace structural
/// fingerprint, supported-OpId-set fingerprint, ReplayConfig fingerprint,
/// profiler stream fingerprint — plus the serialized ReplayConfig and
/// coverage stats.  verify_package() re-derives every fingerprint from the
/// packaged data files and checks them against the manifest, so a consumer
/// can prove a received package is internally consistent (no tampered or
/// mismatched trace/plan/config) before trusting its numbers.

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
/// "optimizer" blocks, which import derives — v3 packages are rejected.
inline constexpr int kPackageFormatVersion = 4;
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
/// failed check human-readably.
struct PackageVerification {
    bool ok = false;
    std::vector<std::string> errors;
};

/// Integrity-checks a generated package directory against its manifest:
///  - every manifest-listed file exists;
///  - the packaged execution trace re-hashes to the manifest's structural
///    (and operator-mix) fingerprint;
///  - the packaged profiler trace re-hashes to the manifest's stream
///    fingerprint;
///  - the packaged replay config re-fingerprints to the manifest's config
///    fingerprint, and this process's op registry reproduces the manifest's
///    supported-set fingerprint;
///  - replay_plan.json carries the same plan key and coverage as the
///    manifest.
/// Never throws on bad packages — problems come back as errors.
PackageVerification verify_package(const std::string& directory);

} // namespace mystique::core
