/// Tests for the profiler trace: breakdowns, exposed time, chrome export.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "profiler/profiler.h"

namespace mystique::prof {
namespace {

CpuOpEvent
cpu(const std::string& name, double ts, double dur, int64_t node, bool wrapper = false,
    dev::OpCategory cat = dev::OpCategory::kATen)
{
    CpuOpEvent e;
    e.name = name;
    e.ts = ts;
    e.dur = dur;
    e.node_id = node;
    e.is_wrapper = wrapper;
    e.category = cat;
    return e;
}

KernelEvent
kernel(const std::string& name, int stream, double ts, double dur, int64_t corr,
       dev::OpCategory cat = dev::OpCategory::kATen)
{
    KernelEvent e;
    e.name = name;
    e.stream = stream;
    e.ts = ts;
    e.dur = dur;
    e.correlation = corr;
    e.category = cat;
    return e;
}

TEST(ProfilerTrace, SpanCoversEverything)
{
    ProfilerTrace t;
    t.add_cpu_op(cpu("a", 10, 5, 1));
    t.add_kernel(kernel("k", 7, 12, 20, 1));
    const auto s = t.span();
    EXPECT_DOUBLE_EQ(s.start, 10.0);
    EXPECT_DOUBLE_EQ(s.end, 32.0);
}

TEST(ProfilerTrace, KernelsForNodeAndStreams)
{
    ProfilerTrace t;
    t.add_kernel(kernel("k1", 7, 0, 5, 3));
    t.add_kernel(kernel("k2", 20, 5, 5, 3));
    t.add_kernel(kernel("k3", 7, 10, 5, 4));
    EXPECT_EQ(t.kernels_for_node(3).size(), 2u);
    EXPECT_EQ(t.streams_for_node(3), (std::vector<int>{7, 20}));
    EXPECT_EQ(t.streams_for_node(99).size(), 0u);
}

TEST(ProfilerTrace, CategoryBreakdownSelfTime)
{
    ProfilerTrace t;
    // Parent composite [0,10) with nested child [2,6): self times 6 and 4.
    t.add_cpu_op(cpu("aten::linear", 0, 10, 1));
    t.add_cpu_op(cpu("aten::addmm", 2, 4, 2));
    const auto rows = t.category_breakdown();
    const auto& aten = rows.at(dev::OpCategory::kATen);
    EXPECT_EQ(aten.count, 2);
    EXPECT_DOUBLE_EQ(aten.cpu_time_us, 10.0); // 6 + 4, no double counting
}

TEST(ProfilerTrace, WrappersExcludedFromCounts)
{
    ProfilerTrace t;
    t.add_cpu_op(cpu("## fwd ##", 0, 10, 1, /*wrapper=*/true, dev::OpCategory::kOther));
    t.add_cpu_op(cpu("aten::relu", 1, 2, 2));
    const auto rows = t.category_breakdown();
    EXPECT_EQ(rows.count(dev::OpCategory::kOther), 0u);
    EXPECT_EQ(rows.at(dev::OpCategory::kATen).count, 1);
}

TEST(ProfilerTrace, ExposedGpuTimePerCategory)
{
    ProfilerTrace t;
    // Comm kernel [0,10); compute kernel [4,8) overlaps 4 → comm exposed 6.
    t.add_kernel(kernel("nccl", 20, 0, 10, 1, dev::OpCategory::kComm));
    t.add_kernel(kernel("gemm", 7, 4, 4, 2, dev::OpCategory::kATen));
    const auto rows = t.category_breakdown();
    EXPECT_DOUBLE_EQ(rows.at(dev::OpCategory::kComm).gpu_time_us, 10.0);
    EXPECT_DOUBLE_EQ(rows.at(dev::OpCategory::kComm).exposed_gpu_time_us, 6.0);
    EXPECT_DOUBLE_EQ(rows.at(dev::OpCategory::kATen).exposed_gpu_time_us, 0.0);
}

TEST(ProfilerTrace, TopKernelsAggregatesByName)
{
    ProfilerTrace t;
    t.add_kernel(kernel("small", 7, 0, 1, 1));
    t.add_kernel(kernel("big", 7, 1, 10, 2));
    t.add_kernel(kernel("big", 7, 11, 10, 3));
    const auto top = t.top_kernels_by_time(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].first, "big");
    EXPECT_DOUBLE_EQ(top[0].second, 20.0);
}

TEST(ProfilerTrace, ChromeExportStructure)
{
    ProfilerTrace t;
    t.add_cpu_op(cpu("aten::relu", 0, 5, 1));
    t.add_kernel(kernel("relu_k", 7, 5, 3, 1));
    const Json doc = t.to_chrome_trace();
    const auto& events = doc.at("traceEvents").as_array();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].at("ph").as_string(), "X");
    EXPECT_EQ(events[0].at("pid").as_int(), 1); // CPU process
    EXPECT_EQ(events[1].at("pid").as_int(), 0); // GPU process
    EXPECT_EQ(events[1].at("tid").as_int(), 7); // stream as tid
}

TEST(ProfilerTrace, JsonRoundTrip)
{
    // No field of either event holds its default, so a field the reader
    // dropped would come back different.
    ProfilerTrace t;
    CpuOpEvent c = cpu("aten::mm", 1.5, 4.25, 11, /*wrapper=*/true, dev::OpCategory::kCustom);
    c.tid = 2;
    t.add_cpu_op(c);
    KernelEvent k = kernel("sgemm", 7, 5.5, 100.125, 11, dev::OpCategory::kComm);
    k.kind = dev::KernelKind::kGemm;
    k.flops = 1e9;
    k.bytes = 1e6;
    k.micro = {.ipc = 3.0, .l1_hit_rate = 0.25, .l2_hit_rate = 0.5, .sm_throughput = 0.75};
    t.add_kernel(k);

    const ProfilerTrace back = ProfilerTrace::from_json(Json::parse(t.to_json().dump()));
    ASSERT_EQ(back.cpu_ops().size(), 1u);
    const CpuOpEvent& bc = back.cpu_ops()[0];
    EXPECT_EQ(bc.name, c.name);
    EXPECT_EQ(bc.tid, c.tid);
    EXPECT_EQ(bc.ts, c.ts);
    EXPECT_EQ(bc.dur, c.dur);
    EXPECT_EQ(bc.node_id, c.node_id);
    EXPECT_EQ(bc.category, c.category);
    EXPECT_EQ(bc.is_wrapper, c.is_wrapper);

    ASSERT_EQ(back.kernels().size(), 1u);
    const KernelEvent& bk = back.kernels()[0];
    EXPECT_EQ(bk.name, k.name);
    EXPECT_EQ(bk.stream, k.stream);
    EXPECT_EQ(bk.ts, k.ts);
    EXPECT_EQ(bk.dur, k.dur);
    EXPECT_EQ(bk.correlation, k.correlation);
    EXPECT_EQ(bk.category, k.category);
    EXPECT_EQ(bk.kind, k.kind);
    EXPECT_EQ(bk.flops, k.flops);
    EXPECT_EQ(bk.bytes, k.bytes);
    EXPECT_EQ(bk.micro.ipc, k.micro.ipc);
    EXPECT_EQ(bk.micro.l1_hit_rate, k.micro.l1_hit_rate);
    EXPECT_EQ(bk.micro.l2_hit_rate, k.micro.l2_hit_rate);
    EXPECT_EQ(bk.micro.sm_throughput, k.micro.sm_throughput);
    EXPECT_EQ(back.to_json(), t.to_json());
}

TEST(ProfilerTrace, FromJsonRejectsMissingMistypedAndUnknownMembers)
{
    ProfilerTrace t;
    t.add_cpu_op(cpu("aten::mm", 1, 4, 11));
    t.add_kernel(kernel("sgemm", 7, 5, 100, 11));
    const Json good = t.to_json();
    ASSERT_NO_THROW(ProfilerTrace::from_json(good));

    // Applies @p edit to the first event of @p list in a copy of the trace.
    auto edited = [&good](const char* list, const std::function<void(Json&)>& edit) {
        Json doc = good;
        Json events = doc.at(list);
        edit(events.as_array().front());
        doc.set(list, std::move(events));
        return doc;
    };
    auto without = [](const char* member) {
        return [member](Json& e) {
            Json::Object& o = e.as_object();
            o.erase(std::remove_if(o.begin(), o.end(),
                                   [member](const auto& kv) { return kv.first == member; }),
                    o.end());
        };
    };
    const std::vector<std::pair<const char*, std::function<void(Json&)>>> cases = {
        {"kernels", [](Json& e) { e.set("stream", Json("9")); }},
        {"kernels", [](Json& e) { e.set("category", Json("Bogus")); }},
        {"kernels", [](Json& e) { e.set("kind", Json("bogus")); }},
        {"kernels", [](Json& e) { e.set("stream", Json(int64_t{1} << 32)); }},
        {"kernels", without("micro")},
        {"kernels", without("kind")},
        {"cpu_ops", [](Json& e) { e.set("tid", Json("1")); }},
        {"cpu_ops", [](Json& e) { e.set("category", Json("Bogus")); }},
        {"cpu_ops", without("wrapper")},
    };
    for (std::size_t i = 0; i < cases.size(); ++i)
        EXPECT_THROW(ProfilerTrace::from_json(edited(cases[i].first, cases[i].second)),
                     ParseError)
            << "case " << i;
}

TEST(ProfilerSession, OnlyRecordsWhileActive)
{
    ProfilerSession p;
    p.record_cpu_op(cpu("dropped", 0, 1, 1));
    p.start();
    p.record_cpu_op(cpu("kept", 1, 1, 2));
    p.stop();
    p.record_cpu_op(cpu("dropped2", 2, 1, 3));
    EXPECT_EQ(p.trace().cpu_ops().size(), 1u);
    EXPECT_EQ(p.trace().cpu_ops()[0].name, "kept");
}

} // namespace
} // namespace mystique::prof
