#include "profiler/profiler.h"

#include <algorithm>

#include "common/error.h"
#include "common/hash.h"

namespace mystique::prof {

// vector<ProfilerTrace> growth must move its elements, not copy them.
static_assert(std::is_nothrow_move_constructible_v<ProfilerTrace>);

uint64_t
ProfilerTrace::replay_fingerprint() const
{
    return rfp_.get([this] {
        Fnv1a h;
        for (const auto& k : kernels_) {
            h.mix_pod(k.correlation);
            h.mix_pod(k.stream);
        }
        h.mix_pod(kernels_.size());
        return h.value();
    });
}

sim::Interval
ProfilerTrace::span() const
{
    std::vector<sim::Interval> all;
    all.reserve(cpu_ops_.size() + kernels_.size());
    for (const auto& e : cpu_ops_)
        all.push_back({e.ts, e.ts + e.dur});
    for (const auto& k : kernels_)
        all.push_back({k.ts, k.ts + k.dur});
    return sim::span(all);
}

std::vector<const KernelEvent*>
ProfilerTrace::kernels_for_node(int64_t node_id) const
{
    std::vector<const KernelEvent*> out;
    for (const auto& k : kernels_) {
        if (k.correlation == node_id)
            out.push_back(&k);
    }
    return out;
}

std::vector<int>
ProfilerTrace::streams_for_node(int64_t node_id) const
{
    std::vector<int> out;
    for (const auto* k : kernels_for_node(node_id)) {
        if (std::find(out.begin(), out.end(), k->stream) == out.end())
            out.push_back(k->stream);
    }
    return out;
}

std::map<dev::OpCategory, CategoryBreakdown>
ProfilerTrace::category_breakdown() const
{
    std::map<dev::OpCategory, CategoryBreakdown> out;

    // CPU self-time: per thread, subtract directly-nested children from each
    // parent so nested composites are not double counted.
    std::unordered_map<int, std::vector<const CpuOpEvent*>> by_tid;
    for (const auto& e : cpu_ops_)
        by_tid[e.tid].push_back(&e);
    for (auto& [tid, events] : by_tid) {
        std::sort(events.begin(), events.end(), [](const CpuOpEvent* a, const CpuOpEvent* b) {
            if (a->ts != b->ts)
                return a->ts < b->ts;
            return a->dur > b->dur; // parents first on ties
        });
        // Nesting stack; each frame tracks time consumed by children.
        struct Frame {
            const CpuOpEvent* ev;
            double child_time = 0.0;
        };
        std::vector<Frame> stack;
        auto close_frames_before = [&](double ts) {
            while (!stack.empty() && stack.back().ev->ts + stack.back().ev->dur <= ts + 1e-9) {
                const Frame f = stack.back();
                stack.pop_back();
                const double self = std::max(0.0, f.ev->dur - f.child_time);
                if (!f.ev->is_wrapper) {
                    auto& row = out[f.ev->category];
                    ++row.count;
                    row.cpu_time_us += self;
                }
                if (!stack.empty())
                    stack.back().child_time += f.ev->dur;
            }
        };
        for (const auto* ev : events) {
            close_frames_before(ev->ts);
            stack.push_back({ev, 0.0});
        }
        close_frames_before(1e300);
    }

    // GPU time and exposed GPU time per category.
    std::map<dev::OpCategory, std::vector<sim::Interval>> by_cat;
    for (const auto& k : kernels_)
        by_cat[k.category].push_back({k.ts, k.ts + k.dur});
    for (const auto& k : kernels_)
        out[k.category].gpu_time_us += k.dur;
    for (const auto& [cat, targets] : by_cat) {
        std::vector<sim::Interval> others;
        for (const auto& [other_cat, ivs] : by_cat) {
            if (other_cat != cat)
                others.insert(others.end(), ivs.begin(), ivs.end());
        }
        out[cat].exposed_gpu_time_us = sim::total_exposed_time(targets, others);
    }
    return out;
}

std::vector<std::pair<std::string, double>>
ProfilerTrace::top_kernels_by_time(std::size_t k) const
{
    std::unordered_map<std::string, double> by_name;
    for (const auto& ev : kernels_)
        by_name[ev.name] += ev.dur;
    std::vector<std::pair<std::string, double>> sorted(by_name.begin(), by_name.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
        if (a.second != b.second)
            return a.second > b.second;
        return a.first < b.first;
    });
    if (sorted.size() > k)
        sorted.resize(k);
    return sorted;
}

Json
ProfilerTrace::to_chrome_trace() const
{
    Json events = Json::array();
    for (const auto& e : cpu_ops_) {
        Json ev = Json::object();
        ev.set("ph", Json("X"));
        ev.set("name", Json(e.name));
        ev.set("cat", Json(e.is_wrapper ? "user_annotation" : "cpu_op"));
        ev.set("pid", Json(static_cast<int64_t>(1)));
        ev.set("tid", Json(static_cast<int64_t>(e.tid)));
        ev.set("ts", Json(e.ts));
        ev.set("dur", Json(e.dur));
        Json args = Json::object();
        args.set("node_id", Json(e.node_id));
        args.set("category", Json(dev::to_string(e.category)));
        ev.set("args", std::move(args));
        events.push_back(std::move(ev));
    }
    for (const auto& k : kernels_) {
        Json ev = Json::object();
        ev.set("ph", Json("X"));
        ev.set("name", Json(k.name));
        ev.set("cat", Json("kernel"));
        ev.set("pid", Json(static_cast<int64_t>(0)));
        ev.set("tid", Json(static_cast<int64_t>(k.stream)));
        ev.set("ts", Json(k.ts));
        ev.set("dur", Json(k.dur));
        Json args = Json::object();
        args.set("correlation", Json(k.correlation));
        args.set("stream", Json(static_cast<int64_t>(k.stream)));
        args.set("category", Json(dev::to_string(k.category)));
        ev.set("args", std::move(args));
        events.push_back(std::move(ev));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", Json("ms"));
    return doc;
}

void
ProfilerTrace::save_chrome_trace(const std::string& path) const
{
    to_chrome_trace().dump_file(path);
}

namespace {

Json
micro_to_json(const dev::MicroMetrics& m)
{
    Json j = Json::object();
    j.set("ipc", Json(m.ipc));
    j.set("l1", Json(m.l1_hit_rate));
    j.set("l2", Json(m.l2_hit_rate));
    j.set("sm", Json(m.sm_throughput));
    return j;
}

dev::MicroMetrics
micro_from_json(const Json& j)
{
    dev::MicroMetrics m;
    m.ipc = j.at("ipc").as_double();
    m.l1_hit_rate = j.at("l1").as_double();
    m.l2_hit_rate = j.at("l2").as_double();
    m.sm_throughput = j.at("sm").as_double();
    return m;
}

} // namespace

Json
ProfilerTrace::to_json() const
{
    Json cpu = Json::array();
    for (const auto& e : cpu_ops_) {
        Json j = Json::object();
        j.set("name", Json(e.name));
        j.set("tid", Json(static_cast<int64_t>(e.tid)));
        j.set("ts", Json(e.ts));
        j.set("dur", Json(e.dur));
        j.set("node_id", Json(e.node_id));
        j.set("category", Json(dev::to_string(e.category)));
        j.set("wrapper", Json(e.is_wrapper));
        cpu.push_back(std::move(j));
    }
    Json ker = Json::array();
    for (const auto& k : kernels_) {
        Json j = Json::object();
        j.set("name", Json(k.name));
        j.set("stream", Json(static_cast<int64_t>(k.stream)));
        j.set("ts", Json(k.ts));
        j.set("dur", Json(k.dur));
        j.set("correlation", Json(k.correlation));
        j.set("category", Json(dev::to_string(k.category)));
        j.set("kind", Json(dev::to_string(k.kind)));
        j.set("flops", Json(k.flops));
        j.set("bytes", Json(k.bytes));
        j.set("micro", micro_to_json(k.micro));
        ker.push_back(std::move(j));
    }
    Json doc = Json::object();
    doc.set("cpu_ops", std::move(cpu));
    doc.set("kernels", std::move(ker));
    return doc;
}

ProfilerTrace
ProfilerTrace::from_json(const Json& j)
{
    ProfilerTrace t;
    for (const auto& e : j.at("cpu_ops").as_array()) {
        CpuOpEvent ev;
        ev.name = e.at("name").as_string();
        ev.tid = e.at("tid").as_int32();
        ev.ts = e.at("ts").as_double();
        ev.dur = e.at("dur").as_double();
        ev.node_id = e.at("node_id").as_int();
        ev.category = dev::op_category_from_string(e.at("category").as_string());
        ev.is_wrapper = e.at("wrapper").as_bool();
        t.add_cpu_op(std::move(ev));
    }
    for (const auto& e : j.at("kernels").as_array()) {
        KernelEvent ev;
        ev.name = e.at("name").as_string();
        ev.stream = e.at("stream").as_int32();
        ev.ts = e.at("ts").as_double();
        ev.dur = e.at("dur").as_double();
        ev.correlation = e.at("correlation").as_int();
        ev.category = dev::op_category_from_string(e.at("category").as_string());
        ev.kind = dev::kernel_kind_from_string(e.at("kind").as_string());
        ev.flops = e.at("flops").as_double();
        ev.bytes = e.at("bytes").as_double();
        ev.micro = micro_from_json(e.at("micro"));
        t.add_kernel(std::move(ev));
    }
    return t;
}

void
ProfilerSession::record_cpu_op(CpuOpEvent ev)
{
    if (active_)
        trace_.add_cpu_op(std::move(ev));
}

void
ProfilerSession::record_kernel(KernelEvent ev)
{
    if (active_)
        trace_.add_kernel(std::move(ev));
}

} // namespace mystique::prof
