/// Tests for ET nodes, serialization, the observer, and the trace database.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>

#include "common/error.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "et/node.h"
#include "et/trace.h"
#include "et/trace_db.h"

namespace mystique::et {
namespace {

TensorMeta
meta(int64_t id, std::vector<int64_t> shape)
{
    TensorMeta m;
    m.tensor_id = id;
    m.storage_id = id + 1000;
    m.numel = 1;
    for (int64_t d : shape)
        m.numel *= d;
    m.shape = std::move(shape);
    return m;
}

Node
op_node(int64_t id, const std::string& name, int64_t parent = -1)
{
    Node n;
    n.id = id;
    n.name = name;
    n.parent = parent;
    n.kind = NodeKind::kOperator;
    n.op_schema = name + "(Tensor self) -> Tensor";
    return n;
}

/// An empty directory under the test temp dir (cleared if it exists).
std::string
fresh_dir(const std::string& tag)
{
    const std::string dir = testing::TempDir() + "/etdb_" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/// Trace @p i: its meta and its shapes differ from every other index, and
/// its op mix cycles, so fingerprints repeat while structures do not.
ExecutionTrace
numbered_trace(int i)
{
    ExecutionTrace t;
    t.meta().workload = "w" + std::to_string(i);
    t.meta().seed = static_cast<uint64_t>(1000 + i);
    t.meta().rank = i % 4;
    for (int k = 0; k <= i % 5; ++k) {
        Node n = op_node(k, "op" + std::to_string((i + k) % 7));
        n.inputs.push_back(Argument::from_tensor(meta(k, {i + 1, k + 2})));
        t.add_node(std::move(n));
    }
    return t;
}

/// File @p n of a test directory; names sort by @p n.
std::string
numbered_path(const std::string& dir, int n)
{
    char name[32];
    std::snprintf(name, sizeof(name), "/t%03d.json", n);
    return dir + name;
}

/// The "*.json" paths in @p dir, sorted as load_directory sorts them.
std::vector<std::string>
sorted_json_files(const std::string& dir)
{
    std::vector<std::filesystem::path> paths;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".json")
            paths.push_back(entry.path());
    }
    std::sort(paths.begin(), paths.end());
    return {paths.begin(), paths.end()};
}

void
expect_same_trace(const ExecutionTrace& got, const ExecutionTrace& want)
{
    EXPECT_EQ(got.fingerprint(), want.fingerprint());
    EXPECT_EQ(got.structural_fingerprint(), want.structural_fingerprint());
    EXPECT_EQ(got.meta().to_json().dump(), want.meta().to_json().dump());
}

void
expect_same_database(const TraceDatabase& got, const std::vector<ExecutionTrace>& want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("database index " + std::to_string(i));
        expect_same_trace(got.trace(i), want[i]);
    }
}

TEST(TensorMeta, JsonRoundTripSixTuple)
{
    TensorMeta m = meta(7, {2, 3});
    m.device = "cuda:1";
    m.dtype = "int64";
    m.itemsize = 8;
    m.offset = 4;
    const TensorMeta back = TensorMeta::from_json(m.to_json());
    EXPECT_EQ(back, m);
    // The serialized ID is the paper's six-element tuple.
    EXPECT_EQ(m.to_json().at("id").as_array().size(), 6u);
}

TEST(TensorMeta, RejectsBadTuple)
{
    Json j = meta(1, {1}).to_json();
    j.set("id", Json(Json::Array{Json(1), Json(2)}));
    EXPECT_THROW(TensorMeta::from_json(j), ParseError);
}

TEST(TensorMeta, RejectsNegativeDimsAndNumelMismatch)
{
    TensorMeta negative = meta(1, {4});
    negative.shape = {-16};
    negative.numel = -16;
    EXPECT_THROW(TensorMeta::from_json(negative.to_json()), ParseError);

    TensorMeta mismatch = meta(2, {4, 4});
    mismatch.numel = 15;
    EXPECT_THROW(TensorMeta::from_json(mismatch.to_json()), ParseError);

    // A product past int64 is rejected, not wrapped into a plausible numel.
    TensorMeta overflow = meta(3, {1});
    overflow.shape = {int64_t{1} << 40, int64_t{1} << 40};
    overflow.numel = 0;
    EXPECT_THROW(TensorMeta::from_json(overflow.to_json()), ParseError);
    overflow.numel = std::numeric_limits<int64_t>::max();
    EXPECT_THROW(TensorMeta::from_json(overflow.to_json()), ParseError);

    // Scalars (product 1) and empty tensors (a zero dim) are well formed.
    EXPECT_NO_THROW(TensorMeta::from_json(meta(4, {}).to_json()));
    EXPECT_NO_THROW(TensorMeta::from_json(meta(5, {0, int64_t{1} << 62}).to_json()));
}

TEST(Argument, AllKindsRoundTrip)
{
    const std::vector<Argument> args = {
        Argument::none(),
        Argument::from_int(42),
        Argument::from_double(2.5),
        Argument::from_bool(true),
        Argument::from_string("cuda:0"),
        Argument::from_int_list({1, 2, 3}),
        Argument::from_tensor(meta(1, {4})),
        Argument::from_tensor_list({meta(2, {1}), meta(3, {2})}),
    };
    for (const auto& a : args) {
        const Argument back = Argument::from_json(a.to_json());
        EXPECT_EQ(back.kind, a.kind);
        EXPECT_EQ(back.int_value, a.int_value);
        EXPECT_EQ(back.double_value, a.double_value);
        EXPECT_EQ(back.tensors.size(), a.tensors.size());
        EXPECT_EQ(back.int_list, a.int_list);
        EXPECT_EQ(back.string_value, a.string_value);
    }
}

TEST(Node, JsonRoundTrip)
{
    Node n = op_node(5, "aten::relu", 2);
    n.tid = 2;
    n.category = dev::OpCategory::kATen;
    n.inputs.push_back(Argument::from_tensor(meta(1, {8})));
    n.outputs.push_back(Argument::from_tensor(meta(2, {8})));
    n.pg_id = 3;
    const Node back = Node::from_json(n.to_json());
    EXPECT_EQ(back.id, 5);
    EXPECT_EQ(back.name, "aten::relu");
    EXPECT_EQ(back.parent, 2);
    EXPECT_EQ(back.tid, 2);
    EXPECT_EQ(back.pg_id, 3);
    EXPECT_EQ(back.inputs.size(), 1u);
    EXPECT_EQ(back.op_schema, n.op_schema);
}

TEST(ExecutionTrace, AddAndFind)
{
    ExecutionTrace t;
    t.add_node(op_node(0, "a"));
    t.add_node(op_node(1, "b", 0));
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.find(1)->name, "b");
    EXPECT_EQ(t.find(9), nullptr);
    EXPECT_EQ(t.children(0), std::vector<int64_t>{1});
    EXPECT_EQ(t.find_by_name("b")->id, 1);
    EXPECT_EQ(t.find_by_name("zzz"), nullptr);
}

TEST(ExecutionTrace, RejectsNonMonotoneIds)
{
    ExecutionTrace t;
    t.add_node(op_node(5, "a"));
    EXPECT_THROW(t.add_node(op_node(3, "b")), InternalError);
}

TEST(ExecutionTrace, FromJsonRejectsNonIncreasingIdsAsParseError)
{
    // A document is outside input: a repeated or falling id is malformed
    // input (ParseError), not the InternalError add_node raises.
    for (const int64_t second_id : {int64_t{1}, int64_t{0}}) {
        Json j = ExecutionTrace().to_json();
        Json nodes = Json::array();
        nodes.push_back(op_node(1, "a").to_json());
        nodes.push_back(op_node(second_id, "b").to_json());
        j.set("nodes", std::move(nodes));
        EXPECT_THROW(ExecutionTrace::from_json(j), ParseError) << second_id;
    }
}

TEST(ExecutionTrace, FromJsonRejectsBadParentsAndTids)
{
    // Selection walks parent chains and replay switches threads by tid, so
    // a parent that is not an earlier node (a self-loop, a cycle through a
    // forward reference, a dangling id) or a thread replay does not model
    // is malformed input, rejected at ingest.
    auto doc = [](const std::vector<Node>& nodes) {
        Json j = ExecutionTrace().to_json();
        Json arr = Json::array();
        for (const Node& n : nodes)
            arr.push_back(n.to_json());
        j.set("nodes", std::move(arr));
        return j;
    };
    Node autograd = op_node(3, "c", 1);
    autograd.tid = 2;
    EXPECT_EQ(ExecutionTrace::from_json(doc({op_node(1, "a"), op_node(2, "b", 1), autograd}))
                  .size(),
              3u);

    for (const int64_t parent : {int64_t{2}, int64_t{3}, int64_t{7}, int64_t{-2}}) {
        const Json j = doc({op_node(1, "a"), op_node(2, "b", parent), op_node(3, "c", 2)});
        EXPECT_THROW(ExecutionTrace::from_json(j), ParseError) << parent;
    }
    for (const int tid : {0, 3}) {
        Node n = op_node(2, "b", 1);
        n.tid = tid;
        EXPECT_THROW(ExecutionTrace::from_json(doc({op_node(1, "a"), n})), ParseError) << tid;
    }
}

TEST(ExecutionTrace, FromJsonRejectsMissingAndMistypedMembers)
{
    // Every member the writer always emits is required with its type, and
    // the optional "pg" must have its type when present: a hostile edit is
    // a ParseError, never the value a default would have given.
    ExecutionTrace t;
    t.meta().world_size = 8;
    t.meta().process_groups[1] = {0, 1};
    Node n = op_node(1, "a");
    n.pg_id = 1;
    t.add_node(n);
    const Json good = t.to_json();
    ASSERT_NO_THROW(ExecutionTrace::from_json(good));

    auto with_meta = [&good](const std::function<void(Json&)>& edit) {
        Json doc = good;
        Json m = doc.at("meta");
        edit(m);
        doc.set("meta", std::move(m));
        return doc;
    };
    auto with_node = [&good](const std::function<void(Json&)>& edit) {
        Json doc = good;
        Json nodes = doc.at("nodes");
        edit(nodes.as_array().front());
        doc.set("nodes", std::move(nodes));
        return doc;
    };
    auto without = [](const char* member) {
        return [member](Json& o) {
            Json::Object& members = o.as_object();
            members.erase(std::remove_if(members.begin(), members.end(),
                                         [member](const auto& kv) { return kv.first == member; }),
                          members.end());
        };
    };
    auto with_group_key = [](const char* key) {
        return [key](Json& m) {
            Json groups = Json::object();
            groups.set(key, Json(Json::Array{Json(0), Json(1)}));
            m.set("process_groups", std::move(groups));
        };
    };

    const std::vector<Json> bad = {
        with_node([](Json& o) { o.set("tid", Json("2")); }),
        with_node([](Json& o) { o.set("pg", Json("1")); }),
        with_node(without("tid")),
        with_node(without("op_schema")),
        with_meta([](Json& m) { m.set("world_size", Json("8")); }),
        with_meta([](Json& m) { m.set("world_size", Json(int64_t{4294967304})); }),
        with_meta(without("rank")),
        with_meta(with_group_key("x")),
        with_meta(with_group_key("1x")),
        with_meta(with_group_key("")),
        with_meta(with_group_key(" 1")),
    };
    for (std::size_t i = 0; i < bad.size(); ++i)
        EXPECT_THROW(ExecutionTrace::from_json(bad[i]), ParseError) << "case " << i;

    // The error names the member, and inside a node the node's id too.
    const auto error_of = [](const Json& doc) -> std::string {
        try {
            (void)ExecutionTrace::from_json(doc);
        } catch (const ParseError& e) {
            return e.what();
        }
        return {};
    };
    EXPECT_EQ(error_of(bad[0]), "parse error: node 1: json: member 'tid': expected integer");
    EXPECT_EQ(error_of(bad[2]), "parse error: node 1: json: missing key 'tid'");
    EXPECT_EQ(error_of(with_node([](Json& o) { o.set("kind", Json(3)); })),
              "parse error: node 1: json: member 'kind': expected string");
    EXPECT_EQ(error_of(bad[4]), "parse error: json: member 'world_size': expected integer");

    // Process-group ids are the writer's decimals, signs included.
    const ExecutionTrace negative = ExecutionTrace::from_json(with_meta(with_group_key("-3")));
    EXPECT_EQ(negative.meta().process_groups.at(-3), (std::vector<int>{0, 1}));
}

TEST(ExecutionTrace, SaveLoadRoundTrip)
{
    ExecutionTrace t;
    t.meta().workload = "unit";
    t.meta().rank = 3;
    t.meta().world_size = 8;
    t.meta().process_groups[0] = {0, 1, 2};
    t.add_node(op_node(0, "aten::relu"));
    const std::string path = testing::TempDir() + "/trace_roundtrip.json";
    t.save(path);
    const ExecutionTrace back = ExecutionTrace::load(path);
    EXPECT_EQ(back.size(), 1u);
    EXPECT_EQ(back.meta().workload, "unit");
    EXPECT_EQ(back.meta().rank, 3);
    EXPECT_EQ(back.meta().process_groups.at(0), (std::vector<int>{0, 1, 2}));
}

TEST(ExecutionTrace, FingerprintsSurviveDiskRoundTrip)
{
    // Benchmark-package provenance depends on this: core::verify_package
    // re-hashes the packaged execution_trace.json and compares against the
    // fingerprints recorded at generation time, so save → load must change
    // nothing either fingerprint covers — including awkward doubles.
    ExecutionTrace t;
    t.meta().workload = "fp_roundtrip";
    t.meta().world_size = 4;
    t.meta().process_groups[0] = {0, 1, 2, 3};
    Node n = op_node(0, "aten::addmm");
    n.inputs.push_back(Argument::from_tensor(meta(1, {128, 256})));
    n.inputs.push_back(Argument::from_double(1.0 / 3.0));
    n.inputs.push_back(Argument::from_double(0.1));
    n.inputs.push_back(Argument::from_int_list({9007199254740993, -1}));
    n.outputs.push_back(Argument::from_tensor(meta(2, {128, 256})));
    t.add_node(std::move(n));
    t.add_node(op_node(1, "aten::relu"));

    const std::string path = testing::TempDir() + "/trace_fp_roundtrip.json";
    t.save(path);
    const ExecutionTrace back = ExecutionTrace::load(path);
    EXPECT_EQ(back.structural_fingerprint(), t.structural_fingerprint());
    EXPECT_EQ(back.fingerprint(), t.fingerprint());

    // And a second generation (load → save → load) stays fixed too.
    const std::string path2 = testing::TempDir() + "/trace_fp_roundtrip2.json";
    back.save(path2);
    EXPECT_EQ(ExecutionTrace::load(path2).structural_fingerprint(),
              t.structural_fingerprint());
}

TEST(ExecutionTrace, FingerprintStableUnderReorderOfCounts)
{
    ExecutionTrace a, b;
    a.add_node(op_node(0, "x"));
    a.add_node(op_node(1, "y"));
    b.add_node(op_node(0, "y"));
    b.add_node(op_node(1, "x"));
    EXPECT_EQ(a.fingerprint(), b.fingerprint()); // histogram-based
    ExecutionTrace c;
    c.add_node(op_node(0, "x"));
    EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(ExecutionTrace, CopiesKeepAndMovedFromTracesRecomputeFingerprints)
{
    ExecutionTrace a;
    a.add_node(op_node(0, "x"));
    a.add_node(op_node(1, "y"));
    const uint64_t fp = a.fingerprint();
    const uint64_t sfp = a.structural_fingerprint();

    const ExecutionTrace copy = a;
    EXPECT_EQ(copy.fingerprint(), fp);
    EXPECT_EQ(copy.structural_fingerprint(), sfp);

    // A moved-from trace has no nodes left: its fingerprints are an empty
    // trace's, not the values its cache held.
    const ExecutionTrace empty;
    ExecutionTrace moved = std::move(a);
    EXPECT_EQ(moved.fingerprint(), fp);
    EXPECT_EQ(a.fingerprint(), empty.fingerprint());
    EXPECT_EQ(a.structural_fingerprint(), empty.structural_fingerprint());
    a = std::move(moved);
    EXPECT_EQ(a.structural_fingerprint(), sfp);
    EXPECT_EQ(moved.fingerprint(), empty.fingerprint());
    EXPECT_EQ(moved.structural_fingerprint(), empty.structural_fingerprint());
}

TEST(Observer, SortsCompletionOrderIntoIdOrder)
{
    ExecutionTraceObserver obs;
    obs.start();
    // Children complete before parents: record out of order.
    obs.record(op_node(2, "child", 1));
    obs.record(op_node(1, "parent"));
    obs.stop();
    ASSERT_EQ(obs.trace().size(), 2u);
    EXPECT_EQ(obs.trace().nodes()[0].id, 1);
    EXPECT_EQ(obs.trace().nodes()[1].id, 2);
}

TEST(Observer, InactiveRecordThrows)
{
    ExecutionTraceObserver obs;
    EXPECT_THROW(obs.record(op_node(0, "x")), InternalError);
}

TEST(Observer, RegisterCallbackWritesFile)
{
    const std::string path = testing::TempDir() + "/observer_out.json";
    ExecutionTraceObserver obs;
    obs.register_callback(path);
    obs.start();
    obs.record(op_node(0, "aten::relu"));
    obs.stop();
    EXPECT_EQ(ExecutionTrace::load(path).size(), 1u);
}

TEST(TraceDb, AnalyzeGroupsByFingerprint)
{
    TraceDatabase db;
    for (int i = 0; i < 3; ++i) {
        ExecutionTrace t;
        t.meta().workload = "common";
        t.add_node(op_node(0, "a"));
        db.add(std::move(t));
    }
    ExecutionTrace rare;
    rare.meta().workload = "rare";
    rare.add_node(op_node(0, "b"));
    db.add(std::move(rare));

    const auto groups = db.analyze();
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].members.size(), 3u);
    EXPECT_DOUBLE_EQ(groups[0].population_weight, 0.75);
    EXPECT_EQ(groups[0].representative_workload, "common");

    const auto top = db.select_top(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(db.trace(top[0]).meta().workload, "common");
}

TEST(TraceDb, LoadDirectoryAbsorbsUnreadableDirectories)
{
    // A missing ingest directory (not yet synced) degrades to an empty load
    // with a warning — it must not abort the whole database build.  Same for
    // a path that exists but is not a directory at all.
    TraceDatabase db;
    EXPECT_EQ(db.load_directory(testing::TempDir() + "/no_such_etdb_dir"), 0u);

    const std::string file_not_dir = testing::TempDir() + "/etdb_plain_file";
    {
        std::ofstream f(file_not_dir);
        f << "not a directory";
    }
    EXPECT_EQ(db.load_directory(file_not_dir), 0u);

    // The database stays usable after degraded loads.
    ExecutionTrace t;
    t.add_node(op_node(0, "a"));
    db.add(std::move(t));
    EXPECT_EQ(db.size(), 1u);
}

TEST(TraceDb, LoadDirectorySkipsMalformedTensorMetadata)
{
    // Hostile shapes and parent ids stop at ingest: the bad files are
    // skipped with a warning instead of loading and failing (or hanging)
    // their group inside replay.
    const std::string dir = fresh_dir("bad_meta");
    ExecutionTrace first = numbered_trace(1);
    first.save(dir + "/a_good.json");

    ExecutionTrace negative;
    Node neg = op_node(0, "aten::relu");
    TensorMeta neg_meta = meta(1, {4});
    neg_meta.shape = {-16};
    neg_meta.numel = -16;
    neg.inputs.push_back(Argument::from_tensor(neg_meta));
    negative.add_node(std::move(neg));
    negative.save(dir + "/b_negative_shape.json");

    ExecutionTrace mismatch;
    Node mis = op_node(0, "aten::relu");
    TensorMeta mis_meta = meta(1, {4, 4});
    mis_meta.numel = 15;
    mis.outputs.push_back(Argument::from_tensor(mis_meta));
    mismatch.add_node(std::move(mis));
    mismatch.save(dir + "/c_numel_mismatch.json");

    ExecutionTrace self_parent;
    self_parent.add_node(op_node(0, "aten::relu", 0));
    self_parent.save(dir + "/c_self_parent.json");

    ExecutionTrace second = numbered_trace(2);
    second.save(dir + "/d_good.json");

    EXPECT_THROW(ExecutionTrace::from_json(negative.to_json()), ParseError);
    EXPECT_THROW(ExecutionTrace::from_json(mismatch.to_json()), ParseError);
    EXPECT_THROW(ExecutionTrace::from_json(self_parent.to_json()), ParseError);

    TraceDatabase db;
    EXPECT_EQ(db.load_directory(dir), 2u);
    expect_same_database(db, {first, second});
}

TEST(TraceDb, ParallelLoadKeepsSortedOrder)
{
    // Written in an order unrelated to the sorted one: index i of the
    // database must be the i-th sorted file, whichever worker parsed it.
    const std::string dir = fresh_dir("order");
    constexpr int kTraces = 72;
    for (int i = 0; i < kTraces; ++i)
        numbered_trace(i).save(numbered_path(dir, (i * 29 + 11) % kTraces));
    std::vector<ExecutionTrace> want;
    for (const std::string& path : sorted_json_files(dir))
        want.push_back(ExecutionTrace::load(path));
    ASSERT_EQ(want.size(), static_cast<std::size_t>(kTraces));
    EXPECT_NE(want.front().meta().workload, "w0"); // written first, sorted later

    for (int load = 0; load < 2; ++load) {
        TraceDatabase db;
        EXPECT_EQ(db.load_directory(dir), want.size());
        expect_same_database(db, want);
    }
}

TEST(TraceDb, LoadDirectorySkipsGarbage)
{
    // Garbage at fixed sorted positions is skipped, with its warnings in
    // sorted order, whichever worker parsed it.
    const std::string dir = fresh_dir("garbage");
    constexpr int kTraces = 64;
    std::vector<ExecutionTrace> want;
    for (int i = 0; i < kTraces; ++i) {
        want.push_back(numbered_trace(i));
        want.back().save(numbered_path(dir, 2 * i));
    }
    // Each garbage file sorts right after good file p: first, middle, last.
    const std::vector<std::pair<int, std::string>> garbage = {
        {0, "{not json"}, {20, ""}, {41, "[1, 2, 3]"}, {kTraces - 1, "{\"meta\": {}}"}};
    std::vector<std::string> garbage_paths;
    for (const auto& [p, text] : garbage) {
        garbage_paths.push_back(numbered_path(dir, 2 * p + 1));
        std::ofstream(garbage_paths.back()) << text;
    }

    // The warnings are the checked output here, whatever level the
    // environment asks for.
    const log::Level saved_level = log::level();
    log::set_level(log::Level::kWarn);
    testing::internal::CaptureStderr();
    TraceDatabase db;
    const std::size_t loaded = db.load_directory(dir);
    const std::string warnings = testing::internal::GetCapturedStderr();
    log::set_level(saved_level);
    EXPECT_EQ(loaded, want.size());
    expect_same_database(db, want);

    // One warning per garbage file, in sorted order.
    std::size_t at = 0;
    for (const std::string& path : garbage_paths) {
        const std::size_t found = warnings.find("skipping unreadable trace " + path, at);
        ASSERT_NE(found, std::string::npos) << path << " not warned in order:\n" << warnings;
        at = found + 1;
    }
}

TEST(TraceDb, ReadFaultDropsTheKthSortedFile)
{
    // read_file's `fs.read` site counts hits in sorted file order, so an
    // armed kth hit drops exactly the kth sorted file on every load.
    const std::string dir = fresh_dir("fault");
    constexpr int kTraces = 64;
    for (int i = 0; i < kTraces; ++i)
        numbered_trace(i).save(numbered_path(dir, (i * 37 + 5) % kTraces));
    std::vector<ExecutionTrace> sorted;
    for (const std::string& path : sorted_json_files(dir))
        sorted.push_back(ExecutionTrace::load(path));

    for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{17},
                                std::size_t{33}, std::size_t{kTraces}}) {
        std::vector<ExecutionTrace> want = sorted;
        want.erase(want.begin() + static_cast<std::ptrdiff_t>(k - 1));
        for (int rep = 0; rep < 20; ++rep) {
            SCOPED_TRACE("k=" + std::to_string(k) + " rep=" + std::to_string(rep));
            FaultInjection::instance().arm("fs.read", k);
            TraceDatabase db;
            EXPECT_EQ(db.load_directory(dir), want.size());
            expect_same_database(db, want);
        }
    }
    FaultInjection::instance().disarm_all();
}

TEST(Builder, RenumbersDensely)
{
    ExecutionTrace t;
    t.add_node(op_node(10, "a"));
    t.add_node(op_node(20, "b", 10));
    const ExecutionTrace built = build_trace(t);
    EXPECT_EQ(built.nodes()[0].id, 0);
    EXPECT_EQ(built.nodes()[1].id, 1);
    EXPECT_EQ(built.nodes()[1].parent, 0);
}

TEST(Builder, RejectsUnknownParent)
{
    ExecutionTrace t;
    t.add_node(op_node(0, "a", 99));
    EXPECT_THROW(build_trace(t), ParseError);
}

TEST(Builder, RejectsOperatorWithoutSchemaUnlessFused)
{
    ExecutionTrace t;
    Node n = op_node(0, "mystery");
    n.op_schema.clear();
    t.add_node(n);
    EXPECT_THROW(build_trace(t), ParseError);

    ExecutionTrace t2;
    Node fused = op_node(0, "fused::x");
    fused.op_schema.clear();
    fused.category = dev::OpCategory::kFused;
    t2.add_node(fused);
    EXPECT_NO_THROW(build_trace(t2)); // fused ops legitimately lack schemas
}

} // namespace
} // namespace mystique::et
