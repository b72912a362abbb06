/// End-to-end replayer tests: trace → replay fidelity on tiny numeric
/// workloads, tensor management, filters, scale-down, codegen, obfuscation.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "core/codegen.h"
#include "core/obfuscator.h"
#include "core/replayer.h"
#include "core/similarity.h"
#include "core/tensor_manager.h"
#include "et/trace.h"
#include "framework/functional.h"
#include "framework/math.h"
#include "workloads/harness.h"

namespace mystique::core {
namespace {

wl::RunConfig
tiny_cfg()
{
    wl::RunConfig cfg;
    cfg.mode = fw::ExecMode::kNumeric;
    cfg.warmup_iterations = 1;
    cfg.iterations = 3;
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
    cfg.mode = fw::ExecMode::kNumeric;
    cfg.warmup_iterations = 1;
    cfg.iterations = 3;
    return cfg;
}

class WorkloadReplayTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadReplayTest, ReplayMatchesOriginalWithinTolerance)
{
    const std::string name = GetParam();
    const wl::RunResult orig = wl::run_original(name, tiny_opts(), tiny_cfg());
    const auto& r0 = orig.rank0();
    ASSERT_GT(r0.trace.size(), 0u);
    ASSERT_GT(r0.prof.kernels().size(), 0u);

    Replayer replayer(r0.trace, &r0.prof, tiny_replay());
    const ReplayResult rep = replayer.run();

    // Compare against the calibrated original (excluding unsupported ops'
    // exposed time), as Table 4 does.
    const double calibrated =
        orig.mean_iter_us - rep.coverage.unsupported_exposed_us;
    EXPECT_NEAR(rep.mean_iter_us, calibrated, calibrated * 0.25)
        << "replay diverged for " << name;
    EXPECT_GT(rep.coverage.count_fraction, 0.9);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadReplayTest,
                         ::testing::Values("param_linear", "resnet", "asr", "rm"));

TEST(Replayer, CoverageFullForAtenOnlyWorkloads)
{
    const wl::RunResult orig = wl::run_original("param_linear", tiny_opts(), tiny_cfg());
    Replayer replayer(orig.rank0().trace, &orig.rank0().prof, tiny_replay());
    EXPECT_DOUBLE_EQ(replayer.coverage_stats().count_fraction, 1.0);
    EXPECT_DOUBLE_EQ(replayer.coverage_stats().time_fraction, 1.0);
}

TEST(Replayer, AsrCustomOpsUnsupportedUntilRegistered)
{
    const wl::RunResult orig = wl::run_original("asr", tiny_opts(), tiny_cfg());
    const auto& r0 = orig.rank0();

    ReplayConfig cfg = tiny_replay();
    Replayer without(r0.trace, &r0.prof, cfg);
    EXPECT_LT(without.coverage_stats().count_fraction, 1.0);
    EXPECT_EQ(without.coverage_stats().unsupported_by_name.count("fairseq::lstm_layer"),
              1u);

    // The §4.3.3 interface: registering the custom ops restores coverage.
    cfg.custom_ops.register_namespace("fairseq::");
    Replayer with(r0.trace, &r0.prof, cfg);
    EXPECT_GT(with.coverage_stats().count_fraction,
              without.coverage_stats().count_fraction);
    EXPECT_EQ(with.coverage_stats().unsupported_by_name.count("fairseq::lstm_layer"), 0u);

    // And the replayed time moves toward the full original.
    const ReplayResult rep_without = without.run();
    const ReplayResult rep_with = with.run();
    EXPECT_GT(rep_with.mean_iter_us, rep_without.mean_iter_us);
}

TEST(Replayer, IterationsAreConsistent)
{
    const wl::RunResult orig = wl::run_original("param_linear", tiny_opts(), tiny_cfg());
    ReplayConfig cfg = tiny_replay();
    cfg.iterations = 5;
    Replayer replayer(orig.rank0().trace, &orig.rank0().prof, cfg);
    const ReplayResult rep = replayer.run();
    ASSERT_EQ(rep.iter_us.size(), 5u);
    for (double t : rep.iter_us)
        EXPECT_NEAR(t, rep.mean_iter_us, rep.mean_iter_us * 0.1);
}

TEST(Replayer, OneShotPlanOwnsATemporaryTrace)
{
    // The trace argument is a temporary, gone before run(); the churn then
    // reuses its freed memory.  The plan's own copy must replay exactly
    // like a replay of the long-lived trace.
    const wl::RunResult orig = wl::run_original("param_linear", tiny_opts(), tiny_cfg());
    const auto& r0 = orig.rank0();
    const Json doc = r0.trace.to_json();
    Replayer from_temporary(et::ExecutionTrace::from_json(doc), &r0.prof, tiny_replay());
    std::vector<std::string> churn;
    for (std::size_t i = 0; i < 4096; ++i)
        churn.emplace_back(16 + (i * 37) % 2048, static_cast<char>(0xA5));
    const ReplayResult a = from_temporary.run();
    const ReplayResult b = Replayer(r0.trace, &r0.prof, tiny_replay()).run();
    EXPECT_EQ(a.iter_us, b.iter_us);
    EXPECT_EQ(a.numeric_digest, b.numeric_digest);
    EXPECT_EQ(a.prof.kernels().size(), b.prof.kernels().size());
}

TEST(Replayer, PortableAcrossPlatforms)
{
    // Trace collected on A100 replays on V100 and CPU without regeneration
    // (§6.7); slower platforms take longer.  Paper-scale shapes (shape-only
    // execution) so compute, not launch overhead, dominates.
    wl::RunConfig run_cfg = tiny_cfg();
    run_cfg.mode = fw::ExecMode::kShapeOnly;
    const wl::RunResult orig = wl::run_original("param_linear", {}, run_cfg);
    ReplayConfig cfg = tiny_replay();
    cfg.mode = fw::ExecMode::kShapeOnly;
    Replayer a100(orig.rank0().trace, &orig.rank0().prof, cfg);
    const double t_a100 = a100.run().mean_iter_us;
    cfg.platform = "V100";
    Replayer v100(orig.rank0().trace, &orig.rank0().prof, cfg);
    const double t_v100 = v100.run().mean_iter_us;
    cfg.platform = "CPU";
    Replayer cpu(orig.rank0().trace, &orig.rank0().prof, cfg);
    const double t_cpu = cpu.run().mean_iter_us;
    EXPECT_GT(t_v100, t_a100);
    EXPECT_GT(t_cpu, t_v100);
}

TEST(Replayer, SubtraceReplayIsSubsetOfFull)
{
    const wl::RunResult orig = wl::run_original("rm", tiny_opts(), tiny_cfg());
    const auto& r0 = orig.rank0();
    ReplayConfig cfg = tiny_replay();
    Replayer full(r0.trace, &r0.prof, cfg);
    cfg.filter.subtrace_root = "## forward:z ##";
    Replayer sub(r0.trace, &r0.prof, cfg);
    EXPECT_LT(sub.selection().total_selected(), full.selection().total_selected());
    EXPECT_GT(sub.selection().total_selected(), 0);
    const double t_sub = sub.run().mean_iter_us;
    const double t_full = full.run().mean_iter_us;
    EXPECT_LT(t_sub, t_full);
}

TEST(Replayer, CommsOnlyFilter)
{
    wl::RunConfig cfg = tiny_cfg();
    cfg.world_size = 2;
    const wl::RunResult orig = wl::run_original("param_linear", tiny_opts(), cfg);
    std::vector<const et::ExecutionTrace*> traces;
    std::vector<const prof::ProfilerTrace*> profs;
    for (const auto& r : orig.ranks) {
        traces.push_back(&r.trace);
        profs.push_back(&r.prof);
    }
    ReplayConfig rcfg = tiny_replay();
    rcfg.filter.only_category = dev::OpCategory::kComm;
    const auto reps = Replayer::run_distributed(traces, profs, rcfg);
    ASSERT_EQ(reps.size(), 2u);
    // Only comm ops replayed: every kernel in the replay profile is comm.
    for (const auto& k : reps[0].prof.kernels())
        EXPECT_EQ(k.category, dev::OpCategory::kComm);
    EXPECT_GT(reps[0].prof.kernels().size(), 0u);
}

TEST(Replayer, DistributedReplayMatches)
{
    wl::RunConfig cfg = tiny_cfg();
    cfg.world_size = 2;
    const wl::RunResult orig = wl::run_original("rm", tiny_opts(), cfg);
    std::vector<const et::ExecutionTrace*> traces;
    std::vector<const prof::ProfilerTrace*> profs;
    for (const auto& r : orig.ranks) {
        traces.push_back(&r.trace);
        profs.push_back(&r.prof);
    }
    const auto reps = Replayer::run_distributed(traces, profs, tiny_replay());
    ASSERT_EQ(reps.size(), 2u);
    double mean = (reps[0].mean_iter_us + reps[1].mean_iter_us) / 2.0;
    EXPECT_NEAR(mean, orig.mean_iter_us, orig.mean_iter_us * 0.3);
}

TEST(Replayer, ScaleDownEmulationInflatesCommTime)
{
    // §7.3: replay 2-rank traces as-if at 64 ranks; comm delay grows, local
    // compute stays put.
    wl::RunConfig cfg = tiny_cfg();
    cfg.world_size = 2;
    const wl::RunResult orig = wl::run_original("param_linear", tiny_opts(), cfg);
    std::vector<const et::ExecutionTrace*> traces;
    std::vector<const prof::ProfilerTrace*> profs;
    for (const auto& r : orig.ranks) {
        traces.push_back(&r.trace);
        profs.push_back(&r.prof);
    }
    ReplayConfig rcfg = tiny_replay();
    const auto plain = Replayer::run_distributed(traces, profs, rcfg);
    rcfg.emulate_world_size = 64;
    const auto emulated = Replayer::run_distributed(traces, profs, rcfg);
    double comm_plain = 0.0, comm_emulated = 0.0;
    for (const auto& k : plain[0].prof.kernels())
        if (k.category == dev::OpCategory::kComm)
            comm_plain += k.dur;
    for (const auto& k : emulated[0].prof.kernels())
        if (k.category == dev::OpCategory::kComm)
            comm_emulated += k.dur;
    EXPECT_GT(comm_emulated, comm_plain);
}

/// Builds a one-op trace with a large embedding lookup over a big table, so
/// index-distribution effects dominate (tiny-preset tables are too small).
et::ExecutionTrace
embedding_trace(int64_t rows, int64_t dim, int64_t nnz, int64_t bags)
{
    auto tensor = [](int64_t uid, std::vector<int64_t> shape, const char* dtype) {
        et::TensorMeta m;
        m.tensor_id = uid;
        m.storage_id = uid + 100;
        m.numel = fw::shape_numel(shape);
        m.itemsize = dtype == std::string("int64") ? 8 : 4;
        m.shape = std::move(shape);
        m.dtype = dtype;
        return m;
    };
    et::Node n;
    n.id = 0;
    n.name = "aten::embedding_bag";
    n.parent = -1;
    n.kind = et::NodeKind::kOperator;
    n.op_schema = "aten::embedding_bag(Tensor weight, Tensor indices, Tensor offsets, "
                  "int mode=0) -> Tensor";
    n.inputs.push_back(et::Argument::from_tensor(tensor(1, {rows, dim}, "float32")));
    n.inputs.push_back(et::Argument::from_tensor(tensor(2, {nnz}, "int64")));
    n.inputs.push_back(et::Argument::from_tensor(tensor(3, {bags}, "int64")));
    n.inputs.push_back(et::Argument::from_int(0));
    n.outputs.push_back(et::Argument::from_tensor(tensor(4, {bags, dim}, "float32")));
    et::ExecutionTrace t;
    t.add_node(std::move(n));
    return t;
}

TEST(Replayer, EmbeddingConfigShiftsTiming)
{
    // The §4.4 value-dependence: uniform vs Zipf index generation changes
    // embedding kernel durations in the replay.
    const et::ExecutionTrace trace = embedding_trace(200000, 64, 1 << 16, 512);
    ReplayConfig cfg = tiny_replay();
    cfg.mode = fw::ExecMode::kShapeOnly;
    cfg.embedding.distribution = EmbeddingGenConfig::Distribution::kUniform;
    Replayer uniform(trace, nullptr, cfg);
    cfg.embedding.distribution = EmbeddingGenConfig::Distribution::kZipf;
    cfg.embedding.zipf_s = 1.2;
    Replayer zipf(trace, nullptr, cfg);
    // Bind each result: a range-for over run().prof.kernels() would iterate
    // a member of a destroyed temporary.
    const ReplayResult uniform_result = uniform.run();
    const ReplayResult zipf_result = zipf.run();
    double emb_uniform = 0.0, emb_zipf = 0.0;
    for (const auto& k : uniform_result.prof.kernels())
        if (k.kind == dev::KernelKind::kEmbedding)
            emb_uniform += k.dur;
    for (const auto& k : zipf_result.prof.kernels())
        if (k.kind == dev::KernelKind::kEmbedding)
            emb_zipf += k.dur;
    EXPECT_GT(emb_uniform, 0.0);
    // Skewed indices → better locality → faster gathers.
    EXPECT_LT(emb_zipf, emb_uniform * 0.95);
}

TEST(Replayer, NumericReplayRejectsAShrunkSecondOperand)
{
    // Record sigmoid → sigmoid_backward, then shrink the backward's slot-1
    // tensor to one element under fresh tensor and storage ids.  Replay
    // instantiates it at that size, and the op must throw rather than read
    // the gradient's numel elements from it.
    fw::SessionOptions opts;
    opts.mode = fw::ExecMode::kNumeric;
    fw::Session s(opts);
    fw::Tensor x = s.alloc({64});
    fw::Tensor g = s.alloc({64});
    fw::math::randn(x.f32(), x.numel(), s.rng());
    fw::math::randn(g.f32(), g.numel(), s.rng());
    et::ExecutionTraceObserver obs;
    s.attach_et_observer(&obs);
    obs.start();
    const fw::Tensor y = fw::F::sigmoid(s, x);
    s.call("aten::sigmoid_backward", {fw::IValue(g), fw::IValue(y)});
    obs.stop();
    const et::ExecutionTrace recorded = obs.take_trace();

    int64_t fresh = 0;
    for (const et::Node& n : recorded.nodes())
        for (const auto* args : {&n.inputs, &n.outputs})
            for (const et::Argument& a : *args)
                for (const et::TensorMeta& m : a.tensors)
                    fresh = std::max({fresh, m.tensor_id, m.storage_id});
    et::ExecutionTrace shrunk;
    shrunk.meta() = recorded.meta();
    int shrunk_nodes = 0;
    for (et::Node n : recorded.nodes()) {
        if (n.name == "aten::sigmoid_backward") {
            et::TensorMeta& m = n.inputs[1].tensors[0];
            m.tensor_id = fresh + 1;
            m.storage_id = fresh + 2;
            m.shape = {1};
            m.numel = 1;
            ++shrunk_nodes;
        }
        shrunk.add_node(std::move(n));
    }
    ASSERT_EQ(shrunk_nodes, 1);

    EXPECT_ANY_THROW((void)Replayer(shrunk, nullptr, tiny_replay()).run());
}

TEST(Similarity, ReportsSmallErrorsForFaithfulReplay)
{
    const wl::RunResult orig = wl::run_original("param_linear", tiny_opts(), tiny_cfg());
    const auto& r0 = orig.rank0();
    Replayer replayer(r0.trace, &r0.prof, tiny_replay());
    const ReplayResult rep = replayer.run();
    const SimilarityReport sim =
        compare_runs(orig.mean_iter_us, r0.metrics, r0.prof, rep.mean_iter_us, rep.metrics,
                     rep.prof);
    // Tiny presets are dispatch-dominated, so the replay/eager CPU-path
    // difference is magnified relative to paper-scale runs.
    EXPECT_LT(sim.e2e_error, 0.30);
    EXPECT_LT(sim.sm_util_error, 0.30);
    EXPECT_FALSE(sim.top_kernels.empty());
    for (const auto& k : sim.top_kernels) {
        EXPECT_NEAR(k.ipc_ratio, 1.0, 0.1) << k.name;
        EXPECT_NEAR(k.l1_ratio, 1.0, 0.1) << k.name;
        EXPECT_NEAR(k.l2_ratio, 1.0, 0.1) << k.name;
        EXPECT_NEAR(k.sm_throughput_ratio, 1.0, 0.1) << k.name;
    }
    EXPECT_NEAR(sim.overall.duration_ratio, 1.0, 0.15);
}

TEST(Codegen, WritesBenchmarkPackage)
{
    const wl::RunResult orig = wl::run_original("param_linear", tiny_opts(), tiny_cfg());
    const std::string dir = testing::TempDir() + "/mystique_benchgen";
    std::filesystem::remove_all(dir);
    const CodegenResult res =
        generate_benchmark(dir, orig.rank0().trace, orig.rank0().prof, tiny_replay());
    EXPECT_EQ(res.files_written, 6);
    EXPECT_TRUE(std::filesystem::exists(dir + "/execution_trace.json"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/profiler_trace.json"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/replay_plan.json"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/manifest.json"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/benchmark_main.cpp"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/README.md"));
    // The saved ET replays identically to the in-memory one.
    const et::ExecutionTrace loaded = et::ExecutionTrace::load(dir + "/execution_trace.json");
    Replayer from_disk(loaded, nullptr, tiny_replay());
    EXPECT_EQ(from_disk.selection().total_selected(),
              Replayer(orig.rank0().trace, nullptr, tiny_replay()).selection().total_selected());
    // The plan JSON carries compiled IR for ATen ops.
    const Json plan = Json::parse_file(dir + "/replay_plan.json");
    EXPECT_GT(plan.at("ops").as_array().size(), 0u);
    bool has_ir = false;
    for (const auto& op : plan.at("ops").as_array())
        has_ir = has_ir || op.contains("ir");
    EXPECT_TRUE(has_ir);
}

TEST(Obfuscator, SubstitutesCustomOpsAndStaysReplayable)
{
    const wl::RunResult orig = wl::run_original("rm", tiny_opts(), tiny_cfg());
    const auto& r0 = orig.rank0();
    const et::ExecutionTrace obf = obfuscate(r0.trace, r0.prof);

    // No custom names survive except the public proxy; annotations renamed.
    for (const auto& n : obf.nodes()) {
        if (n.category == dev::OpCategory::kCustom)
            EXPECT_EQ(n.name, "obf::proxy");
        if (n.kind == et::NodeKind::kWrapper)
            EXPECT_EQ(n.name.rfind("annotation_", 0), 0u);
    }
    // The obfuscated trace replays with FULL custom coverage (proxies are
    // public) and similar time.
    Replayer replayer(obf, nullptr, tiny_replay());
    for (const auto& [name, cnt] : replayer.coverage_stats().unsupported_by_name)
        EXPECT_EQ(name.find("fbgemm"), std::string::npos) << name;
    const ReplayResult rep = replayer.run();
    EXPECT_GT(rep.mean_iter_us, 0.0);
}

TEST(TensorManager, ClassifiesAndGeneratesValidTensors)
{
    const wl::RunResult orig = wl::run_original("rm", tiny_opts(), tiny_cfg());
    Replayer replayer(orig.rank0().trace, &orig.rank0().prof, tiny_replay());
    // Running twice exercises instantiate/bind across iterations.
    const ReplayResult rep = replayer.run();
    EXPECT_GT(rep.mean_iter_us, 0.0);
}

} // namespace
} // namespace mystique::core
