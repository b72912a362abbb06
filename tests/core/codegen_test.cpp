/// Plan-aware codegen tests: ReplayPlan JSON round-trip, package provenance
/// (manifest fingerprints, verify_package accept/reject), and the zero-build
/// guarantee — generating a package for a trace whose plan is already cached
/// must not rebuild the plan.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <numeric>
#include <string>

#include "common/fs_util.h"
#include "core/codegen.h"
#include "core/plan_cache.h"
#include "plan_doc_edits.h"
#include "scoped_env.h"
#include "workloads/harness.h"

namespace mystique::core {
namespace {

namespace fs = std::filesystem;

wl::RunConfig
tiny_cfg()
{
    wl::RunConfig cfg;
    cfg.mode = fw::ExecMode::kShapeOnly;
    cfg.warmup_iterations = 1;
    cfg.iterations = 2;
    cfg.seed = 7;
    return cfg;
}

wl::WorkloadOptions
tiny_opts()
{
    wl::WorkloadOptions o;
    o.preset = wl::Preset::kTiny;
    return o;
}

ReplayConfig
tiny_replay()
{
    ReplayConfig cfg;
    cfg.mode = fw::ExecMode::kShapeOnly;
    cfg.warmup_iterations = 1;
    cfg.iterations = 2;
    return cfg;
}

/// One traced run per workload, shared across the suite.
const wl::RunResult&
traced(const std::string& workload)
{
    static std::map<std::string, wl::RunResult> cache;
    auto it = cache.find(workload);
    if (it == cache.end())
        it = cache.emplace(workload, wl::run_original(workload, tiny_opts(), tiny_cfg()))
                 .first;
    return it->second;
}

std::string
fresh_dir(const std::string& name)
{
    const std::string dir = testing::TempDir() + "/" + name;
    fs::remove_all(dir);
    return dir;
}

/// True when one of @p v's errors names @p what.
bool
names(const PackageVerification& v, const std::string& what)
{
    return std::any_of(v.errors.begin(), v.errors.end(), [&](const std::string& e) {
        return e.find(what) != std::string::npos;
    });
}

/// Rewrites a package's sealed manifest.json through @p edit and seals it
/// again: the manifest passes its seal, so the check a test names is the
/// one that must reject it.
void
edit_manifest(const std::string& dir, const std::function<void(Json&)>& edit)
{
    const std::string path = dir + "/manifest.json";
    Json m = Json::parse_sealed(read_file(path));
    edit(m);
    atomic_write_file(path, m.dump_sealed(2));
}

/// Rewrites a package's sealed replay_plan.json through @p edit and seals it
/// again.
void
edit_plan(const std::string& dir, const std::function<void(Json&)>& edit)
{
    const std::string path = dir + "/replay_plan.json";
    Json plan = Json::parse_sealed(read_file(path));
    edit(plan);
    atomic_write_file(path, plan.dump_sealed(2));
}

/// Rewrites the plan document at @p plan_path with every op moved to the next
/// stream; returns how many ops moved.  The key, the coverage and the seal
/// stay as they were, and the plan still imports and replays, but it now
/// schedules a different benchmark than the one the package describes.
std::size_t
move_every_stream(const std::string& plan_path)
{
    Json plan = Json::parse_file(plan_path);
    Json::Array ops = plan.at("ops").as_array();
    std::size_t moved = 0;
    for (Json& op : ops) {
        if (const Json* stream = op.find("stream")) {
            op.set("stream", Json(stream->as_int() + 1));
            ++moved;
        }
    }
    plan.set("ops", Json(std::move(ops)));
    plan.dump_file(plan_path, 2);
    return moved;
}

TEST(ReplayConfigJson, RoundTripsEveryField)
{
    ReplayConfig cfg;
    cfg.platform = "V100";
    cfg.mode = fw::ExecMode::kNumeric;
    cfg.warmup_iterations = 3;
    cfg.iterations = 17;
    cfg.seed = 0xFEEDFACE;
    cfg.power_limit_w = 275.5;
    cfg.filter.subtrace_root = "## forward:z ##";
    cfg.filter.only_category = dev::OpCategory::kComm;
    cfg.embedding.distribution = EmbeddingGenConfig::Distribution::kUniform;
    cfg.embedding.zipf_s = 1.31;
    cfg.custom_ops = CustomOpRegistry::empty();
    cfg.custom_ops.register_op("fairseq::lstm_layer");
    cfg.custom_ops.register_namespace("fbgemm::");
    cfg.emulate_world_size = 64;
    cfg.collect_profiler = false;

    // Round trip through the *textual* form, as a package consumer would.
    const ReplayConfig back = ReplayConfig::from_json(Json::parse(cfg.to_json().dump()));
    EXPECT_EQ(back.platform, cfg.platform);
    EXPECT_EQ(back.mode, cfg.mode);
    EXPECT_EQ(back.warmup_iterations, cfg.warmup_iterations);
    EXPECT_EQ(back.iterations, cfg.iterations);
    EXPECT_EQ(back.seed, cfg.seed);
    ASSERT_TRUE(back.power_limit_w.has_value());
    EXPECT_DOUBLE_EQ(*back.power_limit_w, *cfg.power_limit_w);
    EXPECT_EQ(back.filter.subtrace_root, cfg.filter.subtrace_root);
    EXPECT_EQ(back.filter.only_category, cfg.filter.only_category);
    EXPECT_EQ(back.embedding.distribution, cfg.embedding.distribution);
    EXPECT_DOUBLE_EQ(back.embedding.zipf_s, cfg.embedding.zipf_s);
    EXPECT_TRUE(back.custom_ops.is_registered("fairseq::lstm_layer"));
    EXPECT_TRUE(back.custom_ops.is_registered("fbgemm::anything"));
    EXPECT_EQ(back.emulate_world_size, cfg.emulate_world_size);
    EXPECT_EQ(back.collect_profiler, cfg.collect_profiler);
    // The fingerprint — the cache identity — survives the round trip.
    EXPECT_EQ(back.fingerprint(), cfg.fingerprint());
    // And the default config round-trips too (null optionals).
    const ReplayConfig dflt;
    EXPECT_EQ(ReplayConfig::from_json(dflt.to_json()).fingerprint(), dflt.fingerprint());
}

TEST(ReplayConfigJson, CompleteDocumentsNeverReadTheEnvironment)
{
    ReplayConfig back = tiny_replay();
    const Json doc = back.to_json();
    const ScopedEnv bad_level("MYST_OPT_LEVEL", "abc");
    EXPECT_THROW((void)ReplayConfig(), ConfigError); // the defaults do read it
    ASSERT_NO_THROW(back = ReplayConfig::from_json(doc));
    EXPECT_EQ(back.to_json(), doc);
}

TEST(ReplayConfigJson, LevelsAreRequired)
{
    // Every writer emits both levels; a document missing one was not
    // written by a v3 producer and must not default to some level.
    const Json full = ReplayConfig().to_json();
    for (const char* field : {"opt_level", "async_level"}) {
        Json doc = Json::object();
        for (const auto& [key, value] : full.as_object()) {
            if (key != field)
                doc.set(key, value);
        }
        EXPECT_THROW((void)ReplayConfig::from_json(doc), ParseError) << field;
    }
}

TEST(PlanJson, RoundTripEqualsInMemoryPlan)
{
    const auto& r0 = traced("param_linear").rank0();
    const ReplayConfig cfg = tiny_replay();
    const auto plan = ReplayPlan::build(r0.trace, &r0.prof, cfg);

    const Json j = plan->to_json();
    // Textual round trip first: dump → parse must preserve the document.
    EXPECT_EQ(Json::parse(j.dump(2)), j);

    // Structural round trip: a plan rebuilt from the JSON serializes back to
    // the exact same document (key, selection, coverage, streams, IR).
    const auto restored = ReplayPlan::from_json(Json::parse(j.dump()), r0.trace);
    EXPECT_EQ(restored->to_json(), j);
    EXPECT_EQ(restored->key(), plan->key());
    EXPECT_EQ(restored->ops().size(), plan->ops().size());

    // And the restored plan replays bit-identically to the built one.
    const ReplayResult a = Replayer(plan, cfg).run();
    const ReplayResult b = Replayer(restored, cfg).run();
    EXPECT_DOUBLE_EQ(a.mean_iter_us, b.mean_iter_us);
    ASSERT_EQ(a.iter_us.size(), b.iter_us.size());
    for (std::size_t i = 0; i < a.iter_us.size(); ++i)
        EXPECT_EQ(a.iter_us[i], b.iter_us[i]);
    EXPECT_EQ(a.prof.kernels().size(), b.prof.kernels().size());
}

TEST(PlanJson, OneShotPlansCarryTheFullKey)
{
    const auto& r0 = traced("param_linear").rank0();
    const ReplayConfig cfg = tiny_replay();

    // A one-shot Replayer's private plan carries the key a cache build
    // computes for the same request, not a cheaper stand-in.
    const Replayer one_shot(r0.trace, &r0.prof, cfg);
    PlanCache cache(4);
    const auto cached = cache.get_or_build(r0.trace, &r0.prof, cfg);
    EXPECT_EQ(one_shot.plan()->key(), cached->key());
    EXPECT_EQ(one_shot.plan()->key(), plan_key(r0.trace, &r0.prof, cfg));

    // Its document restores like any other plan's.
    const Json j = one_shot.plan()->to_json();
    const auto restored = ReplayPlan::from_json(Json::parse(j.dump()), r0.trace);
    EXPECT_EQ(restored->key(), one_shot.plan()->key());
    EXPECT_EQ(restored->to_json(), j);

    // A key without its trace fingerprint is not a key.
    Json keyless = Json::object();
    for (const auto& [name, value] : j.at("key").as_object()) {
        if (name != "trace_fp")
            keyless.set(name, value);
    }
    EXPECT_THROW((void)PlanKey::from_json(keyless), ParseError);
}

TEST(PlanJson, FromJsonRejectsForeignNodes)
{
    const auto& pl = traced("param_linear").rank0();
    const auto& rm = traced("rm").rank0();
    const ReplayConfig cfg = tiny_replay();
    const Json j = ReplayPlan::build(pl.trace, &pl.prof, cfg)->to_json();
    // Deserializing against a different trace must fail loudly, not replay
    // the wrong benchmark.
    EXPECT_THROW((void)ReplayPlan::from_json(j, rm.trace), MystiqueError);
}

TEST(Codegen, WarmCacheCodegenDoesZeroPlanBuilds)
{
    const auto& r0 = traced("param_linear").rank0();
    const ReplayConfig cfg = tiny_replay();
    PlanCache cache(8);

    // Simulate the generate_and_share flow: the trace was already replayed
    // through this cache...
    (void)cache.get_or_build(r0.trace, &r0.prof, cfg);
    ASSERT_EQ(cache.stats().misses, 1u);

    // ...so packaging it must perform zero additional plan builds.
    const std::string dir = fresh_dir("mystique_codegen_warm");
    const CodegenResult res = generate_benchmark(dir, r0.trace, r0.prof, cfg, &cache);
    const PlanCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 1u) << "warm-cache codegen rebuilt the plan";
    EXPECT_EQ(s.hits, 1u);
    ASSERT_NE(res.plan, nullptr);
    EXPECT_EQ(res.files_written, 6);

    // A cold cache pays exactly one build — and only one — for the package.
    PlanCache cold(8);
    (void)generate_benchmark(fresh_dir("mystique_codegen_cold"), r0.trace, r0.prof, cfg,
                             &cold);
    EXPECT_EQ(cold.stats().misses, 1u);
    EXPECT_EQ(cold.stats().hits, 0u);
}

TEST(Codegen, ImportedPackagePlanSeedsPlanCache)
{
    const auto& r0 = traced("param_linear").rank0();
    const ReplayConfig cfg = tiny_replay();
    PlanCache gen_cache(8);
    const std::string dir = fresh_dir("mystique_codegen_import");
    (void)generate_benchmark(dir, r0.trace, r0.prof, cfg, &gen_cache);

    // Consumer side: verify the package, rebuild the plan from the document
    // verify_package returns, and seed a fresh cache with it — replaying the
    // packaged trace is then a pure hit, never a build.
    const PackageVerification pkg = verify_package(dir);
    ASSERT_TRUE(pkg.ok) << (pkg.errors.empty() ? "" : pkg.errors.front());
    const auto plan = ReplayPlan::from_json(pkg.plan, pkg.trace);

    PlanCache import_cache(8);
    EXPECT_TRUE(import_cache.insert(plan));
    EXPECT_FALSE(import_cache.insert(plan)); // second insert keeps the first

    const auto served = import_cache.get_or_build(pkg.trace, &pkg.prof, pkg.config);
    EXPECT_EQ(served.get(), plan.get());
    EXPECT_EQ(import_cache.stats().hits, 1u);
    EXPECT_EQ(import_cache.stats().misses, 0u);

    // A one-shot plan of the same request carries the same full key, which
    // the packaged plan already holds: insert keeps the packaged entry.
    const Replayer one_shot(r0.trace, &r0.prof, cfg);
    EXPECT_FALSE(import_cache.insert(one_shot.plan()));
    EXPECT_EQ(import_cache.lookup(plan->key()).get(), plan.get());
}

TEST(Codegen, ManifestCarriesConfigAndSealedPlanCarriesKey)
{
    const auto& r0 = traced("param_linear").rank0();
    const ReplayConfig cfg = tiny_replay();
    PlanCache cache(8);
    const std::string dir = fresh_dir("mystique_codegen_manifest");
    const CodegenResult res = generate_benchmark(dir, r0.trace, r0.prof, cfg, &cache);

    const Json m = Json::parse_sealed(read_file(dir + "/manifest.json"));
    // Each fact once: under its seal, the v8 manifest holds these members
    // and no others.
    std::vector<std::string> members;
    for (const auto& [name, value] : m.as_object())
        members.push_back(name);
    EXPECT_EQ(members, (std::vector<std::string>{"format", "format_version", "generator",
                                                 "workload", "platform", "replay_config",
                                                 "files"}));
    EXPECT_EQ(m.at("format").as_string(), "mystique-benchmark-package");
    EXPECT_EQ(m.at("format_version").as_int(), kPackageFormatVersion);
    EXPECT_EQ(m.at("generator").as_string(), kGeneratorVersion);
    EXPECT_EQ(m.at("workload").as_string(), r0.trace.meta().workload);

    // replay_plan.json is the plan the package came from, sealed: its key
    // is the plan's key, whose trace component is the packaged trace's
    // structural fingerprint.
    const Json plan = Json::parse_sealed(read_file(dir + "/replay_plan.json"));
    EXPECT_EQ(plan, res.plan->to_json());
    const PlanKey key = PlanKey::from_json(plan.at("key"));
    EXPECT_EQ(key, res.plan->key());
    EXPECT_EQ(key.trace_fp, r0.trace.structural_fingerprint());
    // The embedded config re-fingerprints to the key's config component.
    EXPECT_EQ(ReplayConfig::from_json(m.at("replay_config")).fingerprint(), key.config_fp);
    // Every listed file exists.
    for (const Json& f : m.at("files").as_array())
        EXPECT_TRUE(fs::exists(fs::path(dir) / f.as_string())) << f.as_string();
}

TEST(Codegen, VerifyPackageAcceptsFreshPackage)
{
    const auto& r0 = traced("param_linear").rank0();
    PlanCache cache(8);
    const std::string dir = fresh_dir("mystique_codegen_verify_ok");
    (void)generate_benchmark(dir, r0.trace, r0.prof, tiny_replay(), &cache);

    const PackageVerification v = verify_package(dir);
    EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors.front());
    EXPECT_TRUE(v.errors.empty());
    // It returns what it verified, the plan without its seal.
    ASSERT_NE(v.trace, nullptr);
    EXPECT_EQ(plan_key(*v.trace, &v.prof, v.config), PlanKey::from_json(v.plan.at("key")));
    EXPECT_FALSE(v.plan.contains("seal"));

    // It never reads the environment: a malformed level changes nothing.
    const ScopedEnv bad_level("MYST_OPT_LEVEL", "abc");
    PackageVerification again;
    ASSERT_NO_THROW(again = verify_package(dir));
    EXPECT_TRUE(again.ok) << (again.errors.empty() ? "" : again.errors.front());
}

TEST(Codegen, ImportRestoresTheSealedPlanBytes)
{
    const auto& r0 = traced("rm").rank0();
    PlanCache cache(8);
    const std::string dir = fresh_dir("mystique_codegen_verify_then_swap");
    const CodegenResult res = generate_benchmark(dir, r0.trace, r0.prof, tiny_replay(), &cache);
    const PackageVerification pkg = verify_package(dir);
    ASSERT_TRUE(pkg.ok) << (pkg.errors.empty() ? "" : pkg.errors.front());

    // The plan file changes after verification: the consumer still imports
    // the plan whose bytes the seal covered, not what the disk holds now.
    ASSERT_GT(move_every_stream(dir + "/replay_plan.json"), 0u);
    EXPECT_EQ(ReplayPlan::from_json(pkg.plan, pkg.trace)->to_json().dump(),
              res.plan->to_json().dump());
}

TEST(Codegen, VerifyPackageRejectsTamperedTrace)
{
    const auto& r0 = traced("param_linear").rank0();
    PlanCache cache(8);
    const std::string dir = fresh_dir("mystique_codegen_verify_tamper");
    (void)generate_benchmark(dir, r0.trace, r0.prof, tiny_replay(), &cache);

    // Tamper: perturb one tensor shape (and its numel with it, so ingest
    // validation still accepts it) in the packaged ET — the package still
    // parses and replays, but it is no longer the benchmark the manifest
    // describes.
    const std::string et_path = dir + "/execution_trace.json";
    const et::ExecutionTrace packaged = et::ExecutionTrace::load(et_path);
    et::ExecutionTrace tampered;
    tampered.meta() = packaged.meta();
    bool perturbed = false;
    for (const auto& n : packaged.nodes()) {
        et::Node copy = n;
        if (!perturbed && copy.is_op() && !copy.inputs.empty() &&
            !copy.inputs[0].tensors.empty() && !copy.inputs[0].tensors[0].shape.empty()) {
            et::TensorMeta& t = copy.inputs[0].tensors[0];
            t.shape[0] += 1;
            t.numel = std::accumulate(t.shape.begin(), t.shape.end(), int64_t{1},
                                      std::multiplies<>());
            perturbed = true;
        }
        tampered.add_node(std::move(copy));
    }
    ASSERT_TRUE(perturbed);
    tampered.save(et_path);

    const PackageVerification v = verify_package(dir);
    EXPECT_FALSE(v.ok);
    // The failure names the trace whose fingerprint no longer matches.
    EXPECT_TRUE(names(v, "execution_trace.json"));
    EXPECT_EQ(v.trace, nullptr);
}

TEST(Codegen, VerifyPackageRejectsTamperedProfilerConfigAndMissingFiles)
{
    const auto& r0 = traced("param_linear").rank0();
    PlanCache cache(8);
    const std::string dir = fresh_dir("mystique_codegen_verify_prof");
    (void)generate_benchmark(dir, r0.trace, r0.prof, tiny_replay(), &cache);

    // Append a synthetic kernel event: stream content changes, fingerprint
    // diverges from the manifest.
    const std::string prof_path = dir + "/profiler_trace.json";
    prof::ProfilerTrace altered =
        prof::ProfilerTrace::from_json(Json::parse_file(prof_path));
    prof::KernelEvent ev;
    ev.name = "tampered_kernel";
    ev.stream = 99;
    ev.ts = 0.0;
    ev.dur = 1.0;
    ev.correlation = r0.trace.nodes().front().id;
    altered.add_kernel(ev);
    altered.to_json().dump_file(prof_path);
    const PackageVerification v = verify_package(dir);
    EXPECT_FALSE(v.ok);
    EXPECT_TRUE(names(v, "profiler_trace.json"));

    // A replay config edited after generation no longer re-fingerprints to
    // the key it was packaged under.
    const std::string cfg_dir = fresh_dir("mystique_codegen_verify_config");
    (void)generate_benchmark(cfg_dir, r0.trace, r0.prof, tiny_replay(), &cache);
    edit_manifest(cfg_dir, [](Json& m) {
        Json cfg = m.at("replay_config");
        cfg.set("platform", Json("V100"));
        m.set("replay_config", std::move(cfg));
    });
    const PackageVerification vc = verify_package(cfg_dir);
    EXPECT_FALSE(vc.ok);
    EXPECT_TRUE(names(vc, "replay_config"));

    // A package missing a manifest-listed file fails fast.
    const std::string dir2 = fresh_dir("mystique_codegen_verify_missing");
    (void)generate_benchmark(dir2, r0.trace, r0.prof, tiny_replay(), &cache);
    fs::remove(dir2 + "/replay_plan.json");
    const PackageVerification v2 = verify_package(dir2);
    EXPECT_FALSE(v2.ok);
    ASSERT_FALSE(v2.errors.empty());
    EXPECT_NE(v2.errors.front().find("replay_plan.json"), std::string::npos);

    // A directory with no manifest at all is not a package.
    EXPECT_FALSE(verify_package(fresh_dir("mystique_codegen_no_manifest")).ok);

    // A v7 package, whose manifest is unsealed, is no longer read.
    const std::string v7_dir = fresh_dir("mystique_codegen_verify_v7");
    (void)generate_benchmark(v7_dir, r0.trace, r0.prof, tiny_replay(), &cache);
    Json v7 = Json::parse_sealed(read_file(v7_dir + "/manifest.json"));
    v7.set("format_version", Json(7));
    v7.dump_file(v7_dir + "/manifest.json", 2);
    const PackageVerification old = verify_package(v7_dir);
    EXPECT_FALSE(old.ok);
    EXPECT_TRUE(names(old, "manifest.json"));
    EXPECT_TRUE(names(old, "missing seal"));

    // Nor is a sealed manifest of another version.
    const std::string v9_dir = fresh_dir("mystique_codegen_verify_v9");
    (void)generate_benchmark(v9_dir, r0.trace, r0.prof, tiny_replay(), &cache);
    edit_manifest(v9_dir, [](Json& m) { m.set("format_version", Json(9)); });
    EXPECT_TRUE(names(verify_package(v9_dir), "unsupported format_version 9"));
}

TEST(Codegen, VerifyPackageRejectsEditedHarnessKnobs)
{
    // No key component covers the replay config's harness knobs, so only
    // the manifest's seal can catch an edit to them: iterations 0 and
    // another seed would otherwise verify and report 0 ms per iteration.
    const auto& r0 = traced("param_linear").rank0();
    PlanCache cache(8);
    const std::string dir = fresh_dir("mystique_codegen_verify_knobs");
    (void)generate_benchmark(dir, r0.trace, r0.prof, tiny_replay(), &cache);
    const std::string path = dir + "/manifest.json";
    Json m = Json::parse_file(path); // keeps the old seal, which no longer matches
    Json cfg = m.at("replay_config");
    cfg.set("iterations", Json(0));
    cfg.set("seed", Json(12345));
    m.set("replay_config", std::move(cfg));
    m.dump_file(path, 2);

    const PackageVerification v = verify_package(dir);
    EXPECT_FALSE(v.ok);
    EXPECT_TRUE(names(v, "manifest.json"));
    EXPECT_EQ(v.trace, nullptr);
}

TEST(Codegen, ImportRejectsMistypedOptionalPlanMembers)
{
    // Sealed again after the edit, the plan passes verification, and
    // importing it is a ParseError.
    const auto& r0 = traced("rm").rank0();
    ReplayConfig cfg = tiny_replay();
    cfg.opt_level = 1;
    PlanCache cache(8);
    const auto edits = mistyped_optional_member_edits();
    for (std::size_t i = 0; i < edits.size(); ++i) {
        const std::string dir = fresh_dir("mystique_codegen_mistyped_" + std::to_string(i));
        (void)generate_benchmark(dir, r0.trace, r0.prof, cfg, &cache);
        edit_plan(dir, edits[i]);
        const PackageVerification pkg = verify_package(dir);
        ASSERT_TRUE(pkg.ok) << (pkg.errors.empty() ? "" : pkg.errors.front());
        EXPECT_THROW((void)ReplayPlan::from_json(pkg.plan, pkg.trace), ParseError) << i;
    }
}

TEST(Codegen, VerifyPackageRejectsTamperedPlan)
{
    const auto& r0 = traced("rm").rank0();
    PlanCache cache(8);
    const std::string dir = fresh_dir("mystique_codegen_verify_plan");
    (void)generate_benchmark(dir, r0.trace, r0.prof, tiny_replay(), &cache);

    const std::string plan_path = dir + "/replay_plan.json";
    ASSERT_GT(move_every_stream(plan_path), 0u);
    const et::ExecutionTrace trace = et::ExecutionTrace::load(dir + "/execution_trace.json");
    EXPECT_NO_THROW((void)ReplayPlan::from_json(Json::parse_file(plan_path), trace));

    const PackageVerification v = verify_package(dir);
    EXPECT_FALSE(v.ok);
    EXPECT_TRUE(names(v, "replay_plan.json"));
    EXPECT_TRUE(names(v, "seal"));
    EXPECT_EQ(v.trace, nullptr);

    // A plan sealed again after its key's trace component was edited passes
    // the seal; the key derived from the packaged files must then reject it
    // and name the file whose fingerprint no longer matches.
    const std::string rekeyed_dir = fresh_dir("mystique_codegen_verify_rekeyed");
    (void)generate_benchmark(rekeyed_dir, r0.trace, r0.prof, tiny_replay(), &cache);
    edit_plan(rekeyed_dir, [](Json& plan) {
        Json key = plan.at("key");
        key.set("trace_fp", Json::from_u64(key.at("trace_fp").as_u64() + 1));
        plan.set("key", std::move(key));
    });
    const PackageVerification rekeyed = verify_package(rekeyed_dir);
    EXPECT_FALSE(rekeyed.ok);
    ASSERT_EQ(rekeyed.errors.size(), 1u);
    EXPECT_TRUE(names(rekeyed, "execution_trace.json"));
}

} // namespace
} // namespace mystique::core
