/// Dependency-graph builder tests (core/plan_optimizer.h): def-use edges
/// (RAW/WAW/WAR over tensor AND storage ids), collective/custom barriers,
/// fused-group units, cycle rejection in validate_dep_graph, the plan JSON
/// round-trip of the graph, tampered-graph quarantine on restore, and the
/// async executor's per-stream identity with the serial walk.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/plan_optimizer.h"
#include "core/replayer.h"
#include "testing/trace_fuzzer.h"

namespace mystique::core {
namespace {

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
all_reduce_node(int64_t id, et::TensorMeta in, et::TensorMeta out)
{
    et::Node n = unary_node(id, "c10d::all_reduce",
                            "c10d::all_reduce(Tensor tensor, int pg) -> Tensor",
                            std::move(in), std::move(out));
    n.inputs.push_back(et::Argument::from_int(0));
    n.category = dev::OpCategory::kComm;
    return n;
}

/// Builds the plan and returns its dependency graph (always derived at plan
/// build, at every opt level).
const DepGraph&
graph_of(const std::shared_ptr<const ReplayPlan>& plan)
{
    return plan->dep_graph();
}

TEST(DepGraph, DefUseEdgesFollowTensorFlow)
{
    // relu(1)->2; relu(2)->3; relu(4)->5: a RAW chain 0→1 plus an
    // independent third op with no edges at all.
    const std::vector<int64_t> shape{2, 8};
    et::ExecutionTrace t;
    t.add_node(relu_node(0, f32_meta(1, shape), f32_meta(2, shape)));
    t.add_node(relu_node(1, f32_meta(2, shape), f32_meta(3, shape)));
    t.add_node(relu_node(2, f32_meta(4, shape), f32_meta(5, shape)));

    const auto plan = ReplayPlan::build(t, nullptr, replay_cfg(0));
    const DepGraph& g = graph_of(plan);
    ASSERT_EQ(g.units.size(), 3u);
    EXPECT_TRUE(g.units[0].deps.empty());
    EXPECT_EQ(g.units[1].deps, (std::vector<int>{0}));
    EXPECT_TRUE(g.units[2].deps.empty())
        << "independent streams of work must not be serialized";
    for (const DepUnit& u : g.units) {
        EXPECT_FALSE(u.barrier);
        EXPECT_FALSE(u.comm);
        EXPECT_EQ(u.group, -1);
    }
}

TEST(DepGraph, StorageAliasingCreatesWawEdge)
{
    // Two writes to distinct tensor ids backed by ONE storage id: the
    // def-use scan must track storage identity too, or the second write
    // could be scheduled before the first.
    const std::vector<int64_t> shape{2, 8};
    et::TensorMeta out_a = f32_meta(2, shape);
    et::TensorMeta out_b = f32_meta(5, shape);
    out_b.storage_id = out_a.storage_id; // aliased buffers
    et::ExecutionTrace t;
    t.add_node(relu_node(0, f32_meta(1, shape), std::move(out_a)));
    t.add_node(relu_node(1, f32_meta(4, shape), std::move(out_b)));

    const auto plan = ReplayPlan::build(t, nullptr, replay_cfg(0));
    const DepGraph& g = graph_of(plan);
    ASSERT_EQ(g.units.size(), 2u);
    EXPECT_EQ(g.units[1].deps, (std::vector<int>{0}));
}

TEST(DepGraph, WriteAfterReadIsOrdered)
{
    // relu(1)->2 reads tensor 1; relu(3)->1 then overwrites tensor 1: the
    // writer must wait for the reader (WAR).
    const std::vector<int64_t> shape{2, 8};
    et::ExecutionTrace t;
    t.add_node(relu_node(0, f32_meta(1, shape), f32_meta(2, shape)));
    t.add_node(relu_node(1, f32_meta(3, shape), f32_meta(1, shape)));

    const auto plan = ReplayPlan::build(t, nullptr, replay_cfg(0));
    const DepGraph& g = graph_of(plan);
    ASSERT_EQ(g.units.size(), 2u);
    EXPECT_EQ(g.units[1].deps, (std::vector<int>{0}));
}

TEST(DepGraph, CollectiveIsABarrier)
{
    // Two independent computes, an all_reduce, two more computes: the
    // collective runs after everything before it and before everything
    // after it — per-rank collective issue order is load-bearing (rendezvous
    // deadlock otherwise), so no reordering across it is legal.
    const std::vector<int64_t> shape{2, 8};
    et::ExecutionTrace t;
    t.add_node(relu_node(0, f32_meta(1, shape), f32_meta(2, shape)));
    t.add_node(relu_node(1, f32_meta(3, shape), f32_meta(4, shape)));
    t.add_node(all_reduce_node(2, f32_meta(5, shape), f32_meta(5, shape)));
    t.add_node(relu_node(3, f32_meta(6, shape), f32_meta(7, shape)));
    t.add_node(relu_node(4, f32_meta(8, shape), f32_meta(9, shape)));

    const auto plan = ReplayPlan::build(t, nullptr, replay_cfg(0));
    const DepGraph& g = graph_of(plan);
    ASSERT_EQ(g.units.size(), 5u);
    EXPECT_TRUE(g.units[2].barrier);
    EXPECT_TRUE(g.units[2].comm);
    EXPECT_EQ(g.units[2].stream, dev::kCommStream);
    EXPECT_EQ(g.units[2].deps, (std::vector<int>{0, 1}));
    // Later units depend on the barrier even with disjoint tensors.
    EXPECT_EQ(g.units[3].deps, (std::vector<int>{2}));
    EXPECT_EQ(g.units[4].deps, (std::vector<int>{2}));
}

TEST(DepGraph, FusedChainIsOneUnit)
{
    // mul→add→relu fuse into one group (see plan_optimizer_test's
    // chain_trace); the trailing dead add becomes its own group unit that
    // reads the chain's output.
    const std::vector<int64_t> shape{2, 8};
    et::ExecutionTrace t;
    et::Node mul = unary_node(0, "aten::mul.Tensor",
                              "aten::mul.Tensor(Tensor self, Tensor other) -> Tensor",
                              f32_meta(1, shape), f32_meta(3, shape));
    mul.inputs.insert(mul.inputs.begin() + 1,
                      et::Argument::from_tensor(f32_meta(2, shape)));
    t.add_node(std::move(mul));
    et::Node add = unary_node(
        1, "aten::add.Tensor",
        "aten::add.Tensor(Tensor self, Tensor other, *, Scalar alpha=1) -> Tensor",
        f32_meta(3, shape), f32_meta(5, shape));
    add.inputs.insert(add.inputs.begin() + 1,
                      et::Argument::from_tensor(f32_meta(4, shape)));
    add.inputs.push_back(et::Argument::from_int(1));
    t.add_node(std::move(add));
    t.add_node(relu_node(2, f32_meta(5, shape), f32_meta(6, shape)));
    et::Node dead = unary_node(
        3, "aten::add.Tensor",
        "aten::add.Tensor(Tensor self, Tensor other, *, Scalar alpha=1) -> Tensor",
        f32_meta(6, shape), f32_meta(7, shape));
    dead.inputs.insert(dead.inputs.begin() + 1,
                       et::Argument::from_tensor(f32_meta(6, shape)));
    dead.inputs.push_back(et::Argument::from_int(1));
    t.add_node(std::move(dead));

    const auto plan = ReplayPlan::build(t, nullptr, replay_cfg(1));
    ASSERT_EQ(plan->optimizer_stats().chains_formed, 1);
    const DepGraph& g = graph_of(plan);
    ASSERT_EQ(g.units.size(), 2u);
    EXPECT_EQ(g.units[0].head, 0);
    EXPECT_GE(g.units[0].group, 0);
    EXPECT_TRUE(g.units[0].deps.empty());
    // The dead group's input is the live chain's output: RAW edge.
    EXPECT_GE(g.units[1].group, 0);
    EXPECT_EQ(g.units[1].deps, (std::vector<int>{0}));
}

TEST(DepGraph, ValidateRejectsMalformedGraphs)
{
    // validate_dep_graph is the cycle-rejection gate for restored documents:
    // program-order DAGs only have backward edges, so a forward or self edge
    // is exactly a cycle (and must quarantine, not deadlock the scheduler).
    DepGraph forward;
    forward.units.push_back({0, -1, 7, false, false, {1}});
    forward.units.push_back({1, -1, 7, false, false, {}});
    EXPECT_THROW(validate_dep_graph(forward, 2), ParseError);

    DepGraph self_edge;
    self_edge.units.push_back({0, -1, 7, false, false, {0}});
    EXPECT_THROW(validate_dep_graph(self_edge, 1), ParseError);

    DepGraph bad_head;
    bad_head.units.push_back({5, -1, 7, false, false, {}});
    EXPECT_THROW(validate_dep_graph(bad_head, 2), ParseError);

    DepGraph unsorted;
    unsorted.units.push_back({0, -1, 7, false, false, {}});
    unsorted.units.push_back({1, -1, 7, false, false, {}});
    unsorted.units.push_back({2, -1, 7, false, false, {1, 0}});
    EXPECT_THROW(validate_dep_graph(unsorted, 3), ParseError);

    DepGraph good;
    good.units.push_back({0, -1, 7, false, false, {}});
    good.units.push_back({1, -1, 7, false, false, {0}});
    EXPECT_NO_THROW(validate_dep_graph(good, 2));
}

TEST(DepGraph, PlanJsonRoundTripCarriesTheGraph)
{
    const std::vector<int64_t> shape{2, 8};
    et::ExecutionTrace t;
    t.add_node(relu_node(0, f32_meta(1, shape), f32_meta(2, shape)));
    t.add_node(relu_node(1, f32_meta(2, shape), f32_meta(3, shape)));
    t.add_node(all_reduce_node(2, f32_meta(3, shape), f32_meta(3, shape)));

    const auto plan = ReplayPlan::build(t, nullptr, replay_cfg(0));
    const Json j = plan->to_json();
    ASSERT_TRUE(j.contains("dep_graph"));

    const auto restored = ReplayPlan::from_json(j, t);
    const DepGraph& a = graph_of(plan);
    const DepGraph& b = graph_of(restored);
    ASSERT_EQ(a.units.size(), b.units.size());
    for (std::size_t i = 0; i < a.units.size(); ++i) {
        EXPECT_EQ(a.units[i].head, b.units[i].head);
        EXPECT_EQ(a.units[i].group, b.units[i].group);
        EXPECT_EQ(a.units[i].stream, b.units[i].stream);
        EXPECT_EQ(a.units[i].comm, b.units[i].comm);
        EXPECT_EQ(a.units[i].barrier, b.units[i].barrier);
        EXPECT_EQ(a.units[i].deps, b.units[i].deps);
    }
    EXPECT_EQ(restored->to_json().dump(), j.dump());
}

TEST(DepGraph, TamperedGraphQuarantinesOnRestore)
{
    const std::vector<int64_t> shape{2, 8};
    et::ExecutionTrace t;
    t.add_node(relu_node(0, f32_meta(1, shape), f32_meta(2, shape)));
    t.add_node(relu_node(1, f32_meta(2, shape), f32_meta(3, shape)));
    const auto plan = ReplayPlan::build(t, nullptr, replay_cfg(0));
    const Json good = plan->to_json();

    // Dropped edge: the document's graph no longer matches its fingerprint
    // seal — a stale or hand-edited plan must not replay with a wrong
    // schedule.
    Json doc = good;
    Json dep = doc.at("dep_graph");
    Json deps_col = dep.at("deps");
    deps_col.as_array()[1] = Json::array();
    dep.set("deps", std::move(deps_col));
    doc.set("dep_graph", std::move(dep));
    EXPECT_THROW((void)ReplayPlan::from_json(doc, t), ParseError);

    // Forward edge: rejected as a cycle before the seal check even runs.
    Json doc2 = good;
    Json dep2 = doc2.at("dep_graph");
    Json deps_col2 = dep2.at("deps");
    Json fwd = Json::array();
    fwd.push_back(Json(int64_t{1}));
    deps_col2.as_array()[0] = std::move(fwd);
    dep2.set("deps", std::move(deps_col2));
    doc2.set("dep_graph", std::move(dep2));
    EXPECT_THROW((void)ReplayPlan::from_json(doc2, t), ParseError);

    // Broken or missing seal: the graph bytes alone are never trusted.
    Json doc3 = good;
    doc3.set("dep_graph_fp", Json(std::string("1")));
    EXPECT_THROW((void)ReplayPlan::from_json(doc3, t), ParseError);
}

/// @p doc with its dep_graph columns rewritten from @p graph and the seal
/// recomputed — what a hand-edited document must do to pass the seal.
Json
resealed(Json doc, const DepGraph& graph)
{
    Json heads = Json::array(), groups = Json::array(), streams = Json::array(),
         flags = Json::array(), deps = Json::array();
    for (const DepUnit& u : graph.units) {
        heads.push_back(Json(static_cast<int64_t>(u.head)));
        groups.push_back(Json(static_cast<int64_t>(u.group)));
        streams.push_back(Json(static_cast<int64_t>(u.stream)));
        flags.push_back(Json(static_cast<int64_t>((u.comm ? 1 : 0) | (u.barrier ? 2 : 0))));
        Json d = Json::array();
        for (const int e : u.deps)
            d.push_back(Json(static_cast<int64_t>(e)));
        deps.push_back(std::move(d));
    }
    Json dep = Json::object();
    dep.set("head", std::move(heads));
    dep.set("group", std::move(groups));
    dep.set("stream", std::move(streams));
    dep.set("flags", std::move(flags));
    dep.set("deps", std::move(deps));
    doc.set("dep_graph", std::move(dep));
    doc.set("dep_graph_fp", Json(std::to_string(dep_graph_fingerprint(graph))));
    return doc;
}

TEST(DepGraph, ResealedGraphWithWrongUnitsIsRejectedOnRestore)
{
    // Units decide what both executor walks run, so a restored graph's units
    // must be exactly what its ops give — even when the document was
    // resealed and every structural check passes.
    const std::vector<int64_t> shape{2, 8};
    et::ExecutionTrace t;
    t.add_node(relu_node(0, f32_meta(1, shape), f32_meta(2, shape)));
    t.add_node(relu_node(1, f32_meta(2, shape), f32_meta(3, shape)));
    t.add_node(all_reduce_node(2, f32_meta(3, shape), f32_meta(3, shape)));
    const auto plan = ReplayPlan::build(t, nullptr, replay_cfg(0));
    const Json good = plan->to_json();
    const DepGraph& g = graph_of(plan);
    ASSERT_EQ(g.units.size(), 3u);
    ASSERT_NE(g.units[0].stream, g.units[2].stream);

    // The helper encodes faithfully: the unmodified graph, resealed, restores.
    EXPECT_NO_THROW((void)ReplayPlan::from_json(resealed(good, g), t));

    // One executable unit dropped: async replay would skip the collective.
    DepGraph dropped = g;
    dropped.units.pop_back();
    EXPECT_THROW((void)ReplayPlan::from_json(resealed(good, dropped), t), ParseError);

    // Two units' streams swapped: replay would run them on the wrong lanes.
    DepGraph swapped = g;
    std::swap(swapped.units[0].stream, swapped.units[2].stream);
    EXPECT_THROW((void)ReplayPlan::from_json(resealed(good, swapped), t), ParseError);
}

TEST(DepGraph, PlanWithoutIrTableOrGraphIsRejected)
{
    // v3 documents always carry both; the graph-less and ir_table-less
    // readers are gone, so a document missing either is corrupt.
    const std::vector<int64_t> shape{2, 8};
    et::ExecutionTrace t;
    t.add_node(relu_node(0, f32_meta(1, shape), f32_meta(2, shape)));
    const Json good = ReplayPlan::build(t, nullptr, replay_cfg(0))->to_json();
    for (const char* section : {"ir_table", "dep_graph", "dep_graph_fp"}) {
        Json doc = Json::object();
        for (const auto& [key, value] : good.as_object()) {
            if (key != section)
                doc.set(key, value);
        }
        EXPECT_THROW((void)ReplayPlan::from_json(doc, t), ParseError) << section;
    }
}

TEST(DepGraph, AsyncReplayMatchesSerialPerStream)
{
    // End-to-end executor contract on a fuzzed multi-stream case: per-stream
    // kernel name sequences, per-stream counts and totals are identical
    // between MYST_ASYNC=0 and =1 replays.  Scan a few deterministic seeds
    // for one whose profiler trace actually spans multiple compute streams.
    testing::FuzzedCase picked;
    bool found = false;
    for (uint64_t seed = 1; seed <= 24 && !found; ++seed) {
        testing::FuzzedCase c = testing::generate_case(seed);
        if (!c.use_prof)
            continue;
        std::map<int, int> streams;
        for (const prof::KernelEvent& ev : c.prof.kernels())
            ++streams[ev.stream];
        if (streams.size() >= 2) {
            picked = std::move(c);
            found = true;
        }
    }
    ASSERT_TRUE(found) << "no multi-stream fuzz case in the scanned seed range";

    ReplayConfig serial_cfg = picked.cfg;
    serial_cfg.async_level = 0;
    ReplayConfig async_cfg = picked.cfg;
    async_cfg.async_level = 1;
    const ReplayResult rs = Replayer(picked.trace, &picked.prof, serial_cfg).run();
    const ReplayResult ra = Replayer(picked.trace, &picked.prof, async_cfg).run();

    EXPECT_EQ(rs.prof.kernels().size(), ra.prof.kernels().size());
    std::map<int, std::vector<std::string>> ns, na;
    for (const prof::KernelEvent& ev : rs.prof.kernels())
        ns[ev.stream].push_back(ev.name);
    for (const prof::KernelEvent& ev : ra.prof.kernels())
        na[ev.stream].push_back(ev.name);
    EXPECT_GE(ns.size(), 2u) << picked.summary;
    EXPECT_EQ(ns, na) << picked.summary;
}

TEST(DepGraph, AsyncConfigNeverAliasesSerialConfig)
{
    ReplayConfig serial_cfg = replay_cfg(1);
    serial_cfg.async_level = 0;
    ReplayConfig async_cfg = replay_cfg(1);
    async_cfg.async_level = 1;
    EXPECT_NE(serial_cfg.fingerprint(), async_cfg.fingerprint());

    const std::vector<int64_t> shape{2, 8};
    et::ExecutionTrace t;
    t.add_node(relu_node(0, f32_meta(1, shape), f32_meta(2, shape)));
    EXPECT_NE(plan_key(t, nullptr, serial_cfg), plan_key(t, nullptr, async_cfg));
}

} // namespace
} // namespace mystique::core
