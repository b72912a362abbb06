/// Plan-aware codegen tests: ReplayPlan JSON round-trip, package provenance
/// (manifest fingerprints, verify_package accept/reject), and the zero-build
/// guarantee — generating a package for a trace whose plan is already cached
/// must not rebuild the plan.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>
#include <numeric>
#include <string>

#include "core/codegen.h"
#include "core/plan_cache.h"
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

TEST(PlanJson, PartialKeysAreMarkedNotZeroFilled)
{
    const auto& r0 = traced("param_linear").rank0();
    const ReplayConfig cfg = tiny_replay();

    // A one-shot Replayer dump carries a partial key: the document must say
    // so explicitly rather than presenting zero-valued fingerprints.
    const Replayer one_shot(r0.trace, &r0.prof, cfg);
    const Json j = one_shot.plan()->to_json();
    EXPECT_TRUE(j.at("key").get_bool("partial", false));
    EXPECT_FALSE(j.at("key").contains("trace_fp"));
    const PlanKey back = PlanKey::from_json(j.at("key"));
    EXPECT_TRUE(back.is_partial());
    EXPECT_EQ(back.config_fp, cfg.fingerprint());

    // Partial documents are inspection artifacts, not packages: refusing to
    // deserialize them prevents un-verifiable plans from entering caches.
    EXPECT_THROW((void)ReplayPlan::from_json(j, r0.trace), ParseError);

    // Cache-built plans carry full, unmarked keys.
    PlanCache cache(4);
    const Json full = cache.get_or_build(r0.trace, &r0.prof, cfg)->to_json();
    EXPECT_FALSE(full.at("key").get_bool("partial", false));
    EXPECT_FALSE(PlanKey::from_json(full.at("key")).is_partial());
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

    // Consumer side: load the package, rebuild the plan from its JSON, and
    // seed a fresh cache with it — replaying the packaged trace is then a
    // pure hit, never a build.
    const et::ExecutionTrace trace = et::ExecutionTrace::load(dir + "/execution_trace.json");
    const prof::ProfilerTrace prof =
        prof::ProfilerTrace::from_json(Json::parse_file(dir + "/profiler_trace.json"));
    const ReplayConfig imported_cfg = ReplayConfig::from_json(
        Json::parse_file(dir + "/manifest.json").at("replay_config"));
    const auto plan =
        ReplayPlan::from_json(Json::parse_file(dir + "/replay_plan.json"), trace);

    PlanCache import_cache(8);
    EXPECT_TRUE(import_cache.insert(plan));
    EXPECT_FALSE(import_cache.insert(plan)); // second insert keeps the first

    const auto served = import_cache.get_or_build(trace, &prof, imported_cfg);
    EXPECT_EQ(served.get(), plan.get());
    EXPECT_EQ(import_cache.stats().hits, 1u);
    EXPECT_EQ(import_cache.stats().misses, 0u);

    // Borrowed one-shot plans carry partial keys and must be rejected.
    const Replayer one_shot(r0.trace, &r0.prof, cfg);
    EXPECT_THROW((void)import_cache.insert(one_shot.plan()), InternalError);
}

TEST(Codegen, ManifestCarriesPlanKeyAndConfig)
{
    const auto& r0 = traced("param_linear").rank0();
    const ReplayConfig cfg = tiny_replay();
    PlanCache cache(8);
    const std::string dir = fresh_dir("mystique_codegen_manifest");
    const CodegenResult res = generate_benchmark(dir, r0.trace, r0.prof, cfg, &cache);

    const Json m = Json::parse_file(dir + "/manifest.json");
    EXPECT_EQ(m.at("format").as_string(), "mystique-benchmark-package");
    EXPECT_EQ(m.at("format_version").as_int(), kPackageFormatVersion);
    EXPECT_EQ(m.at("generator").as_string(), kGeneratorVersion);
    EXPECT_EQ(m.at("workload").as_string(), r0.trace.meta().workload);

    // The manifest's plan key is the key of the plan the package came from.
    EXPECT_EQ(PlanKey::from_json(m.at("plan_key")), res.plan->key());
    // The trace fingerprints match the packaged trace.
    EXPECT_EQ(m.at("execution_trace").at("structural_fingerprint").as_string(),
              std::to_string(r0.trace.structural_fingerprint()));
    EXPECT_EQ(m.at("execution_trace").at("op_mix_fingerprint").as_string(),
              std::to_string(r0.trace.fingerprint()));
    // The embedded config re-fingerprints to the key's config component.
    EXPECT_EQ(ReplayConfig::from_json(m.at("replay_config")).fingerprint(),
              res.plan->key().config_fp);
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
    ASSERT_FALSE(v.errors.empty());
    // The failure names the structural fingerprint mismatch.
    bool mentions_trace = false;
    for (const auto& e : v.errors)
        mentions_trace = mentions_trace || e.find("execution_trace") != std::string::npos;
    EXPECT_TRUE(mentions_trace);
}

TEST(Codegen, VerifyPackageRejectsTamperedProfilerAndMissingFiles)
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
    EXPECT_FALSE(verify_package(dir).ok);

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
}

} // namespace
} // namespace mystique::core
