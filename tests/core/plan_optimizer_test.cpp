/// Plan-level graph optimizer tests: fusion legality edges on synthetic
/// traces (multi-consumer intermediates, shape/dtype mismatches, skipped-op
/// barriers, batch_norm head-only), the MYST_OPT_LEVEL opt-out, plan-key
/// separation between optimized and verbatim plans across both cache tiers,
/// fused-vs-verbatim replay of every pointwise table row, serialization
/// round-trips, and tamper quarantine on restore.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/error.h"
#include "core/plan_cache.h"
#include "core/plan_optimizer.h"
#include "core/plan_store.h"
#include "core/replayer.h"
#include "core/tensor_manager.h"
#include "et/trace.h"
#include "framework/functional.h"
#include "framework/math.h"
#include "framework/op_registry.h"
#include "jit/schema.h"
#include "scoped_env.h"
#include "workloads/harness.h"

namespace mystique::core {
namespace {

namespace fs = std::filesystem;

ReplayConfig
replay_cfg(int opt_level)
{
    ReplayConfig cfg;
    cfg.mode = fw::ExecMode::kShapeOnly;
    cfg.warmup_iterations = 1;
    cfg.iterations = 2;
    cfg.opt_level = opt_level;
    return cfg;
}

// ---------------------------------------------------------------------------
// Synthetic pointwise traces: hand-built nodes with the exact names/schemas
// ops_pointwise.cpp registers, so each legality edge is isolated from
// workload incidentals.
// ---------------------------------------------------------------------------

et::TensorMeta
f32_meta(int64_t uid, std::vector<int64_t> shape)
{
    et::TensorMeta m;
    m.tensor_id = uid;
    m.storage_id = uid + 1000;
    m.numel = fw::shape_numel(shape);
    m.shape = std::move(shape);
    return m;
}

et::Node
unary_node(int64_t id, const char* name, const char* schema, et::TensorMeta in,
           et::TensorMeta out)
{
    et::Node n;
    n.id = id;
    n.name = name;
    n.op_schema = schema;
    n.inputs.push_back(et::Argument::from_tensor(std::move(in)));
    n.outputs.push_back(et::Argument::from_tensor(std::move(out)));
    return n;
}

et::Node
relu_node(int64_t id, et::TensorMeta in, et::TensorMeta out)
{
    return unary_node(id, "aten::relu", "aten::relu(Tensor self) -> Tensor",
                      std::move(in), std::move(out));
}

et::Node
mul_node(int64_t id, et::TensorMeta a, et::TensorMeta b, et::TensorMeta out)
{
    et::Node n = unary_node(id, "aten::mul.Tensor",
                            "aten::mul.Tensor(Tensor self, Tensor other) -> Tensor",
                            std::move(a), std::move(out));
    n.inputs.insert(n.inputs.begin() + 1, et::Argument::from_tensor(std::move(b)));
    return n;
}

et::Node
add_node(int64_t id, et::TensorMeta a, et::TensorMeta b, et::TensorMeta out)
{
    et::Node n = unary_node(
        id, "aten::add.Tensor",
        "aten::add.Tensor(Tensor self, Tensor other, *, Scalar alpha=1) -> Tensor",
        std::move(a), std::move(out));
    n.inputs.insert(n.inputs.begin() + 1, et::Argument::from_tensor(std::move(b)));
    n.inputs.push_back(et::Argument::from_int(1));
    return n;
}

/// mul(a,b)->t1; add(t1,c)->t2; relu(t2)->t3; add(t3,t3)->t4 (unconsumed).
et::ExecutionTrace
chain_trace()
{
    const std::vector<int64_t> shape{2, 8};
    et::ExecutionTrace t;
    t.add_node(mul_node(0, f32_meta(1, shape), f32_meta(2, shape), f32_meta(3, shape)));
    t.add_node(add_node(1, f32_meta(3, shape), f32_meta(4, shape), f32_meta(5, shape)));
    t.add_node(relu_node(2, f32_meta(5, shape), f32_meta(6, shape)));
    t.add_node(add_node(3, f32_meta(6, shape), f32_meta(6, shape), f32_meta(7, shape)));
    return t;
}

const FusedGroup*
group_of(const ReplayPlan& plan, int op_index)
{
    const int gid = plan.ops()[static_cast<std::size_t>(op_index)].fused_group;
    return gid >= 0 ? &plan.fused_groups()[static_cast<std::size_t>(gid)] : nullptr;
}

TEST(PlanOptimizer, FusesSingleConsumerChainAndEliminatesDeadTail)
{
    const et::ExecutionTrace trace = chain_trace();
    const auto plan = ReplayPlan::build(trace, nullptr, replay_cfg(1));

    const OptimizerStats& st = plan->optimizer_stats();
    EXPECT_EQ(st.chains_formed, 1);
    EXPECT_EQ(st.ops_fused, 3);
    EXPECT_EQ(st.ops_eliminated, 1); // the unconsumed trailing add

    const FusedGroup* chain = group_of(*plan, 0);
    ASSERT_NE(chain, nullptr);
    EXPECT_EQ(chain->members, (std::vector<int>{0, 1, 2}));
    EXPECT_FALSE(chain->dead);
    EXPECT_TRUE(plan->ops()[0].fused_head);
    EXPECT_FALSE(plan->ops()[1].fused_head);
    EXPECT_EQ(group_of(*plan, 1), chain);
    EXPECT_EQ(group_of(*plan, 2), chain);

    const FusedGroup* dead = group_of(*plan, 3);
    ASSERT_NE(dead, nullptr);
    EXPECT_TRUE(dead->dead);
    EXPECT_EQ(dead->members, (std::vector<int>{3}));

    // Coverage counts the original ops, not the groups.
    const auto verbatim = ReplayPlan::build(trace, nullptr, replay_cfg(0));
    EXPECT_EQ(plan->to_json().at("coverage").value(), verbatim->to_json().at("coverage").value());
}

TEST(PlanOptimizer, MultiConsumerIntermediateIsNotFusedOver)
{
    // relu(x0)->x1; exp(x1)->x2; add(x1,x2)->x3: x1 has two consumers, so
    // relu→exp must not fuse even though both ops are allowlisted.
    const std::vector<int64_t> shape{4, 4};
    et::ExecutionTrace t;
    t.add_node(relu_node(0, f32_meta(1, shape), f32_meta(2, shape)));
    t.add_node(unary_node(1, "aten::exp", "aten::exp(Tensor self) -> Tensor",
                          f32_meta(2, shape), f32_meta(3, shape)));
    t.add_node(add_node(2, f32_meta(2, shape), f32_meta(3, shape), f32_meta(4, shape)));

    const auto plan = ReplayPlan::build(t, nullptr, replay_cfg(1));
    const FusedGroup* g0 = group_of(*plan, 0);
    EXPECT_TRUE(g0 == nullptr || g0 != group_of(*plan, 1))
        << "chain fused across a multi-consumer intermediate";
}

TEST(PlanOptimizer, NumelMismatchBreaksTheChain)
{
    // relu over [2,8] followed by a relu recorded over [2,4]: the link's
    // slot-0 tensor id matches but the numel does not — no chain.
    et::ExecutionTrace t;
    t.add_node(relu_node(0, f32_meta(1, {2, 8}), f32_meta(2, {2, 8})));
    t.add_node(relu_node(1, f32_meta(2, {2, 4}), f32_meta(3, {2, 4})));
    t.add_node(add_node(2, f32_meta(3, {2, 4}), f32_meta(3, {2, 4}), f32_meta(4, {2, 4})));

    const auto plan = ReplayPlan::build(t, nullptr, replay_cfg(1));
    const FusedGroup* g0 = group_of(*plan, 0);
    EXPECT_TRUE(g0 == nullptr || g0 != group_of(*plan, 1));
    EXPECT_EQ(plan->optimizer_stats().chains_formed, 0);
}

TEST(PlanOptimizer, NonF32DtypeIsNotFusable)
{
    const std::vector<int64_t> shape{4, 4};
    et::TensorMeta in = f32_meta(1, shape);
    in.dtype = "float64";
    in.itemsize = 8;
    et::TensorMeta out = f32_meta(2, shape);
    out.dtype = "float64";
    out.itemsize = 8;
    et::ExecutionTrace t;
    t.add_node(relu_node(0, std::move(in), std::move(out)));

    const auto plan = ReplayPlan::build(t, nullptr, replay_cfg(1));
    EXPECT_TRUE(plan->fused_groups().empty());
}

TEST(PlanOptimizer, SkippedOpIsAFusionBarrier)
{
    // [mul,add] ── custom::mystery (unregistered → skipped) ── [relu,mul];
    // a trailing add keeps t2 alive and terminates the second chain.
    const std::vector<int64_t> shape{2, 8};
    et::ExecutionTrace t;
    t.add_node(mul_node(0, f32_meta(1, shape), f32_meta(2, shape), f32_meta(3, shape)));
    t.add_node(add_node(1, f32_meta(3, shape), f32_meta(4, shape), f32_meta(5, shape)));
    et::Node barrier = unary_node(2, "custom::mystery", "", f32_meta(5, shape),
                                  f32_meta(6, shape));
    barrier.category = dev::OpCategory::kCustom;
    t.add_node(std::move(barrier));
    t.add_node(relu_node(3, f32_meta(6, shape), f32_meta(7, shape)));
    t.add_node(mul_node(4, f32_meta(7, shape), f32_meta(8, shape), f32_meta(9, shape)));
    t.add_node(add_node(5, f32_meta(5, shape), f32_meta(9, shape), f32_meta(10, shape)));

    const auto plan = ReplayPlan::build(t, nullptr, replay_cfg(1));
    ASSERT_EQ(plan->ops().size(), 6u);
    EXPECT_EQ(plan->ops()[2].kind, ReconstructedOp::Kind::kSkipped);
    EXPECT_EQ(plan->ops()[2].fused_group, -1);

    EXPECT_EQ(plan->optimizer_stats().chains_formed, 2);
    const FusedGroup* before = group_of(*plan, 0);
    const FusedGroup* after = group_of(*plan, 3);
    ASSERT_NE(before, nullptr);
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(before->members, (std::vector<int>{0, 1}));
    EXPECT_EQ(after->members, (std::vector<int>{3, 4}));
}

TEST(PlanOptimizer, BatchNormFusesAsChainHeadOnly)
{
    wl::WorkloadOptions tiny;
    tiny.preset = wl::Preset::kTiny;
    wl::RunConfig rc;
    rc.mode = fw::ExecMode::kShapeOnly;
    rc.warmup_iterations = 1;
    rc.iterations = 2;
    const wl::RunResult orig = wl::run_original("resnet", tiny, rc);
    ReplayConfig cfg = replay_cfg(1);
    cfg.filter.subtrace_root = "## forward ##";
    const auto plan = ReplayPlan::build(orig.rank0().trace, &orig.rank0().prof, cfg);

    int bn_headed_chains = 0;
    for (const FusedGroup& g : plan->fused_groups()) {
        for (std::size_t k = 0; k < g.stages.size(); ++k) {
            if (g.stages[k].kernel == fw::FusedKernel::kBatchNorm) {
                EXPECT_EQ(k, 0u) << "batch_norm fused mid-chain";
                if (g.members.size() >= 2)
                    ++bn_headed_chains;
            }
        }
    }
    EXPECT_GE(bn_headed_chains, 1) << "resnet forward should fuse bn→relu chains";
}

// ---------------------------------------------------------------------------
// Opt-out and plan identity.
// ---------------------------------------------------------------------------

TEST(PlanOptimizer, OptLevelZeroProducesVerbatimPlan)
{
    const et::ExecutionTrace trace = chain_trace();
    const auto plan = ReplayPlan::build(trace, nullptr, replay_cfg(0));
    EXPECT_TRUE(plan->fused_groups().empty());
    const OptimizerStats& st = plan->optimizer_stats();
    EXPECT_EQ(st.chains_formed, 0);
    EXPECT_EQ(st.ops_fused, 0);
    EXPECT_EQ(st.ops_eliminated, 0);
    for (const ReconstructedOp& op : plan->ops()) {
        EXPECT_EQ(op.fused_group, -1);
        EXPECT_FALSE(op.fused_head);
    }
}

TEST(PlanOptimizer, MystOptLevelEnvDisablesByDefault)
{
    const ReplayConfig opted_out = [] {
        const ScopedEnv level("MYST_OPT_LEVEL", "0");
        return ReplayConfig(); // defaults read the environment
    }();
    const ScopedEnv unset("MYST_OPT_LEVEL", std::nullopt);
    const ReplayConfig opted_in;
    EXPECT_EQ(opted_out.opt_level, 0);
    EXPECT_EQ(opted_in.opt_level, 1);
    EXPECT_NE(opted_out.fingerprint(), opted_in.fingerprint())
        << "opt_level must be part of the config fingerprint";
}

TEST(PlanOptimizer, OptimizedAndVerbatimPlansNeverAlias)
{
    const et::ExecutionTrace trace = chain_trace();
    const ReplayConfig cfg_opt = replay_cfg(1);
    const ReplayConfig cfg_verb = replay_cfg(0);

    // Memory tier: two distinct keys, two builds, then pure hits.
    PlanCache cache(8);
    const auto p_opt = cache.get_or_build(trace, nullptr, cfg_opt);
    const auto p_verb = cache.get_or_build(trace, nullptr, cfg_verb);
    EXPECT_NE(p_opt->key(), p_verb->key());
    EXPECT_NE(p_opt.get(), p_verb.get());
    EXPECT_FALSE(p_opt->fused_groups().empty());
    EXPECT_TRUE(p_verb->fused_groups().empty());
    EXPECT_EQ(cache.stats().builds, 2u);
    EXPECT_EQ(cache.get_or_build(trace, nullptr, cfg_opt).get(), p_opt.get());
    EXPECT_EQ(cache.get_or_build(trace, nullptr, cfg_verb).get(), p_verb.get());
    EXPECT_EQ(cache.stats().hits, 2u);

    // Disk tier: the store files for the two keys never collide either.
    const std::string dir =
        (fs::temp_directory_path() / "myst_plan_optimizer_alias_test").string();
    PlanStore store(dir);
    EXPECT_NE(store.entry_path(plan_key(trace, nullptr, cfg_opt)),
              store.entry_path(plan_key(trace, nullptr, cfg_verb)));
}

// ---------------------------------------------------------------------------
// Serialization: round-trip, replay equivalence, tamper quarantine.
// ---------------------------------------------------------------------------

TEST(PlanOptimizer, FusedPlanRoundTripsThroughJsonLosslessly)
{
    const et::ExecutionTrace trace = chain_trace();
    const auto plan = ReplayPlan::build(trace, nullptr, replay_cfg(1));
    ASSERT_FALSE(plan->fused_groups().empty());

    const Json j = plan->to_json();
    const auto restored = ReplayPlan::from_json(j, trace);
    EXPECT_EQ(restored->to_json(), j);

    ASSERT_EQ(restored->fused_groups().size(), plan->fused_groups().size());
    for (std::size_t i = 0; i < plan->fused_groups().size(); ++i) {
        EXPECT_EQ(restored->fused_groups()[i].members, plan->fused_groups()[i].members);
        EXPECT_EQ(restored->fused_groups()[i].dead, plan->fused_groups()[i].dead);
        EXPECT_EQ(restored->fused_groups()[i].stages.size(),
                  plan->fused_groups()[i].stages.size());
    }

    const ReplayConfig cfg = replay_cfg(1);
    const ReplayResult a = Replayer(plan, cfg).run();
    const ReplayResult b = Replayer(restored, cfg).run();
    EXPECT_EQ(a.iter_us, b.iter_us);
    EXPECT_EQ(a.prof.kernels().size(), b.prof.kernels().size());
}

TEST(PlanOptimizer, FusedReplayIsBitIdenticalToVerbatim)
{
    // Numeric mode drives the fused interpreter through its arithmetic paths
    // (sigmoid gates on rm; batch_norm heads on resnet) — the replayed
    // timeline must still match verbatim replay exactly.
    struct Case {
        const char* workload;
        const char* subtrace;
    };
    for (const Case c : {Case{"rm", "## forward:z ##"}, Case{"resnet", "## forward ##"}}) {
        wl::WorkloadOptions tiny;
        tiny.preset = wl::Preset::kTiny;
        wl::RunConfig rc;
        rc.mode = fw::ExecMode::kNumeric;
        rc.warmup_iterations = 1;
        rc.iterations = 2;
        const wl::RunResult orig = wl::run_original(c.workload, tiny, rc);

        ReplayConfig cfg_opt = replay_cfg(1);
        cfg_opt.mode = fw::ExecMode::kNumeric;
        cfg_opt.filter.subtrace_root = c.subtrace;
        ReplayConfig cfg_verb = cfg_opt;
        cfg_verb.opt_level = 0;

        const auto& r0 = orig.rank0();
        const auto p_opt = ReplayPlan::build(r0.trace, &r0.prof, cfg_opt);
        const auto p_verb = ReplayPlan::build(r0.trace, &r0.prof, cfg_verb);
        ASSERT_GE(p_opt->optimizer_stats().chains_formed, 1) << c.workload;

        const ReplayResult ro = Replayer(p_opt, cfg_opt).run();
        const ReplayResult rv = Replayer(p_verb, cfg_verb).run();
        EXPECT_EQ(ro.iter_us, rv.iter_us) << c.workload;
        ASSERT_EQ(ro.prof.kernels().size(), rv.prof.kernels().size()) << c.workload;
        for (std::size_t i = 0; i < ro.prof.kernels().size(); ++i) {
            const prof::KernelEvent& x = ro.prof.kernels()[i];
            const prof::KernelEvent& y = rv.prof.kernels()[i];
            EXPECT_EQ(x.name, y.name) << c.workload << " kernel " << i;
            EXPECT_EQ(x.ts, y.ts) << c.workload << " kernel " << i;
            EXPECT_EQ(x.dur, y.dur) << c.workload << " kernel " << i;
            EXPECT_EQ(x.stream, y.stream) << c.workload << " kernel " << i;
        }
        EXPECT_EQ(p_opt->to_json().at("coverage").value(), p_verb->to_json().at("coverage").value())
            << c.workload;
    }
}

/// Records a numeric chain around table row @p info's op: tanh → row → tanh
/// (the batch_norm head starts the chain instead), closed by a sum so the
/// chain's tail stays live.  Every argument comes from the op's registered
/// schema; @p broadcast gives the row's tensor operand the chain value's
/// last dimension only.
et::ExecutionTrace
record_row_chain(const fw::PointwiseInfo& info, bool broadcast)
{
    fw::SessionOptions opts;
    opts.mode = fw::ExecMode::kNumeric;
    opts.seed = 17;
    fw::Session s(opts);
    auto random = [&s](fw::Shape shape) {
        fw::Tensor t = s.alloc(std::move(shape));
        fw::math::randn(t.f32(), t.numel(), s.rng(), 0.5f);
        return t;
    };
    const fw::Shape shape{2, 3, 4, 4}; // NCHW, for the batch_norm head
    const fw::Tensor x = random(shape);
    const fw::Tensor operand = random(broadcast ? fw::Shape{4} : shape);
    const fw::Tensor per_channel = random({3});

    et::ExecutionTraceObserver obs;
    s.attach_et_observer(&obs);
    obs.start();
    fw::Tensor v = x;
    if (info.args != fw::PointwiseArgs::kNormHead)
        v = fw::F::tanh(s, v);
    const fw::OpDef& def = fw::OpRegistry::instance().at(info.op_name);
    std::vector<fw::IValue> args;
    for (const jit::SchemaArg& arg : jit::parse_schema(def.schema).args) {
        if (args.empty())
            args.emplace_back(v);
        else if (arg.type == "Tensor")
            args.emplace_back(operand);
        else if (arg.type == "Tensor?")
            args.emplace_back(per_channel);
        else if (arg.type == "bool")
            args.emplace_back(true);
        else
            args.emplace_back(0.5); // alpha, mul.Scalar's scalar, threshold, eps
    }
    v = s.call(def.id, std::move(args))[0].tensor();
    v = fw::F::tanh(s, v);
    s.call("aten::sum", {fw::IValue(v)});
    obs.stop();
    return obs.take_trace();
}

/// Runs @p plan's ops once in program order — fused groups through the
/// interpreter, every other op verbatim — and returns the bytes bound to the
/// last op's input (the chain's output).  ReplayResult::numeric_digest cannot
/// witness fused-vs-verbatim numerics: fused replay never binds a chain's
/// intermediates, so its final bindings differ from verbatim replay's by
/// design (the oracle's opt-level check skips the digest for that reason).
std::vector<uint32_t>
chain_output_bits(const ReplayPlan& plan, const ReplayConfig& cfg)
{
    fw::Session s(cfg.session_options(0, 1));
    s.set_grad_enabled(false);
    TensorManager tm(s, cfg.embedding);
    std::vector<const et::Node*> nodes;
    for (const ReconstructedOp& op : plan.ops())
        nodes.push_back(op.node);
    tm.analyze(nodes);
    tm.instantiate_externals();
    for (const ReconstructedOp& op : plan.ops()) {
        if (op.fused_group < 0) {
            execute_reconstructed(s, op, tm);
        } else if (op.fused_head) {
            const FusedGroup& g =
                plan.fused_groups()[static_cast<std::size_t>(op.fused_group)];
            fw::FusedChainCall call;
            call.stages = g.stages.data();
            call.n_stages = g.stages.size();
            call.dead = g.dead;
            call.input = tm.resolve(g.input_meta);
            for (const et::TensorMeta& m : g.operand_metas)
                call.operands.push_back(tm.resolve(m));
            call.out_shape = call.input.shape();
            fw::run_fused_chain(s, call);
            if (!g.dead)
                tm.bind_output(g.output_meta, call.out);
        }
    }
    const fw::Tensor out = tm.resolve(plan.ops().back().node->inputs[0].tensors[0]);
    std::vector<uint32_t> bits(static_cast<std::size_t>(out.numel()));
    std::memcpy(bits.data(), out.f32(), bits.size() * sizeof(uint32_t));
    return bits;
}

TEST(PlanOptimizer, EveryTableRowReplaysFusedBitIdenticalToVerbatim)
{
    for (const fw::PointwiseInfo& info : fw::kPointwiseOps) {
        for (const bool broadcast : {false, true}) {
            if (broadcast && !info.broadcasts())
                continue;
            SCOPED_TRACE(std::string(info.op_name) + (broadcast ? " (broadcast)" : ""));
            const et::ExecutionTrace trace = record_row_chain(info, broadcast);
            ReplayConfig cfg_opt = replay_cfg(1);
            cfg_opt.mode = fw::ExecMode::kNumeric;
            ReplayConfig cfg_verb = cfg_opt;
            cfg_verb.opt_level = 0;
            const auto p_opt = ReplayPlan::build(trace, nullptr, cfg_opt);
            const auto p_verb = ReplayPlan::build(trace, nullptr, cfg_verb);

            int row_ops = 0;
            for (std::size_t i = 0; i < p_opt->ops().size(); ++i) {
                const et::Node* node = p_opt->ops()[i].node;
                if (node == nullptr || node->name != info.op_name)
                    continue;
                ++row_ops;
                const FusedGroup* g = group_of(*p_opt, static_cast<int>(i));
                ASSERT_NE(g, nullptr) << "op not fused";
                EXPECT_FALSE(g->dead);
                EXPECT_GE(g->members.size(), 2u);
            }
            EXPECT_GE(row_ops, 1);

            EXPECT_EQ(chain_output_bits(*p_opt, cfg_opt),
                      chain_output_bits(*p_verb, cfg_verb));
            const ReplayResult ro = Replayer(p_opt, cfg_opt).run();
            const ReplayResult rv = Replayer(p_verb, cfg_verb).run();
            EXPECT_EQ(ro.iter_us, rv.iter_us);
            ASSERT_EQ(ro.prof.kernels().size(), rv.prof.kernels().size());
            for (std::size_t i = 0; i < ro.prof.kernels().size(); ++i) {
                const prof::KernelEvent& a = ro.prof.kernels()[i];
                const prof::KernelEvent& b = rv.prof.kernels()[i];
                EXPECT_EQ(a.name, b.name) << "kernel " << i;
                EXPECT_EQ(a.ts, b.ts) << "kernel " << i;
                EXPECT_EQ(a.dur, b.dur) << "kernel " << i;
                EXPECT_EQ(a.stream, b.stream) << "kernel " << i;
            }
        }
    }
}

TEST(PlanOptimizer, TamperedFusedGroupQuarantinesOnRestore)
{
    const et::ExecutionTrace trace = chain_trace();
    const auto plan = ReplayPlan::build(trace, nullptr, replay_cfg(1));
    const Json good = plan->to_json();

    // Stretch the chain over the dead trailing add: member 3's slot-0 input
    // is not member 2's output, so finalize_group must reject the document.
    Json doc = good;
    Json groups = doc.at("fused_groups");
    Json g0 = groups.as_array().front();
    Json members = Json::array();
    for (int m : {0, 1, 2, 3})
        members.push_back(Json(static_cast<int64_t>(m)));
    g0.set("members", std::move(members));
    g0.set("dead", Json(false));
    groups.as_array().front() = std::move(g0);
    doc.set("fused_groups", std::move(groups));
    EXPECT_THROW((void)ReplayPlan::from_json(doc, trace), ParseError);

    // Out-of-range member index: same contract.
    Json doc2 = good;
    Json groups2 = doc2.at("fused_groups");
    Json g2 = groups2.as_array().front();
    Json members2 = Json::array();
    members2.push_back(Json(int64_t{99}));
    g2.set("members", std::move(members2));
    groups2.as_array().front() = std::move(g2);
    doc2.set("fused_groups", std::move(groups2));
    EXPECT_THROW((void)ReplayPlan::from_json(doc2, trace), ParseError);
}

} // namespace
} // namespace mystique::core
