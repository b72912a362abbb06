#include "et/trace.h"

#include <algorithm>
#include <charconv>

#include "common/error.h"
#include "common/hash.h"
#include "common/logging.h"

namespace mystique::et {

Json
TraceMeta::to_json() const
{
    Json j = Json::object();
    j.set("workload", Json(workload));
    j.set("platform", Json(platform));
    j.set("rank", Json(static_cast<int64_t>(rank)));
    j.set("world_size", Json(static_cast<int64_t>(world_size)));
    j.set("iteration", Json(static_cast<int64_t>(iteration)));
    j.set("seed", Json(seed));
    if (!process_groups.empty()) {
        Json groups = Json::object();
        for (const auto& [id, ranks] : process_groups) {
            Json arr = Json::array();
            for (int r : ranks)
                arr.push_back(Json(static_cast<int64_t>(r)));
            groups.set(std::to_string(id), std::move(arr));
        }
        j.set("process_groups", std::move(groups));
    }
    return j;
}

TraceMeta
TraceMeta::from_json(const Json& j)
{
    TraceMeta m;
    m.workload = j.at("workload").as_string();
    m.platform = j.at("platform").as_string();
    m.rank = j.at("rank").as_int32();
    m.world_size = j.at("world_size").as_int32();
    m.iteration = j.at("iteration").as_int32();
    m.seed = static_cast<uint64_t>(j.at("seed").as_int());
    if (const auto groups = j.find("process_groups")) {
        for (const auto& [key, arr] : groups->as_object()) {
            // The writer spells each id with std::to_string: exactly an
            // optional '-' and decimal digits.
            int64_t id = 0;
            const auto [end, ec] = std::from_chars(key.data(), key.data() + key.size(), id);
            if (ec != std::errc() || end != key.data() + key.size())
                MYST_THROW(ParseError, "trace meta: process-group id '" << key
                                                                        << "' is not a decimal");
            std::vector<int> ranks;
            for (const auto& r : arr.as_array())
                ranks.push_back(r.as_int32());
            m.process_groups[id] = std::move(ranks);
        }
    }
    return m;
}

namespace {

/// Transfers one (valid, value) fingerprint-cache pair; clears the source's
/// validity when @p reset_src (moves leave the source without its nodes, so
/// its cached values would be stale).  Source atomics bind as non-const even
/// from the copy constructor's const source because the members are mutable.
void
transfer_fp_cache(std::atomic<bool>& src_valid, std::atomic<uint64_t>& src_fp,
                  std::atomic<bool>& dst_valid, std::atomic<uint64_t>& dst_fp,
                  bool reset_src = false)
{
    if (src_valid.load(std::memory_order_acquire)) {
        dst_fp.store(src_fp.load(std::memory_order_relaxed), std::memory_order_relaxed);
        dst_valid.store(true, std::memory_order_release);
    } else {
        dst_valid.store(false, std::memory_order_release);
    }
    if (reset_src)
        src_valid.store(false, std::memory_order_release);
}

} // namespace

ExecutionTrace::ExecutionTrace(const ExecutionTrace& other)
    : meta_(other.meta_), nodes_(other.nodes_)
{
    transfer_fp_cache(other.fp_valid_, other.fp_, fp_valid_, fp_);
    transfer_fp_cache(other.sfp_valid_, other.sfp_, sfp_valid_, sfp_);
}

ExecutionTrace::ExecutionTrace(ExecutionTrace&& other) noexcept
    : meta_(std::move(other.meta_)), nodes_(std::move(other.nodes_))
{
    transfer_fp_cache(other.fp_valid_, other.fp_, fp_valid_, fp_, /*reset_src=*/true);
    transfer_fp_cache(other.sfp_valid_, other.sfp_, sfp_valid_, sfp_, /*reset_src=*/true);
}

ExecutionTrace&
ExecutionTrace::operator=(const ExecutionTrace& other)
{
    if (this == &other)
        return *this;
    *this = ExecutionTrace(other);
    return *this;
}

ExecutionTrace&
ExecutionTrace::operator=(ExecutionTrace&& other) noexcept
{
    meta_ = std::move(other.meta_);
    nodes_ = std::move(other.nodes_);
    transfer_fp_cache(other.fp_valid_, other.fp_, fp_valid_, fp_, /*reset_src=*/true);
    transfer_fp_cache(other.sfp_valid_, other.sfp_, sfp_valid_, sfp_, /*reset_src=*/true);
    return *this;
}

void
ExecutionTrace::add_node(Node node)
{
    if (!nodes_.empty())
        MYST_CHECK_MSG(node.id > nodes_.back().id,
                       "node IDs must increase: " << node.id << " after " << nodes_.back().id);
    nodes_.push_back(std::move(node));
    fp_valid_.store(false, std::memory_order_release);
    sfp_valid_.store(false, std::memory_order_release);
}

const Node*
ExecutionTrace::find(int64_t id) const
{
    // Nodes are stored in strictly increasing ID order (add_node enforces
    // it), so lookup is a binary search — no side index to build, copy, or
    // keep coherent.  Plan caching copies traces on every build and restore;
    // dropping the id→position hash map made those copies measurably
    // cheaper, and find() stays O(log n).
    const auto it = std::lower_bound(
        nodes_.begin(), nodes_.end(), id,
        [](const Node& n, int64_t want) { return n.id < want; });
    return it != nodes_.end() && it->id == id ? &*it : nullptr;
}

std::vector<int64_t>
ExecutionTrace::children(int64_t id) const
{
    std::vector<int64_t> out;
    for (const auto& n : nodes_) {
        if (n.parent == id)
            out.push_back(n.id);
    }
    return out;
}

const Node*
ExecutionTrace::find_by_name(const std::string& name) const
{
    for (const auto& n : nodes_) {
        if (n.name == name)
            return &n;
    }
    return nullptr;
}

std::unordered_map<dev::OpCategory, int64_t>
ExecutionTrace::count_by_category() const
{
    std::unordered_map<dev::OpCategory, int64_t> counts;
    for (const auto& n : nodes_) {
        if (n.is_op())
            ++counts[n.category];
    }
    return counts;
}

Json
ExecutionTrace::to_json() const
{
    Json j = Json::object();
    j.set("schema_version", Json(static_cast<int64_t>(1)));
    j.set("meta", meta_.to_json());
    Json nodes = Json::array();
    for (const auto& n : nodes_)
        nodes.push_back(n.to_json());
    j.set("nodes", std::move(nodes));
    return j;
}

ExecutionTrace
ExecutionTrace::from_json(const Json& j)
{
    ExecutionTrace t;
    t.meta_ = TraceMeta::from_json(j.at("meta"));
    for (const auto& n : j.at("nodes").as_array()) {
        Node node = Node::from_json(n);
        // A document is outside input: its id order is a ParseError, not
        // the InternalError add_node raises for a programming bug.
        if (!t.nodes_.empty() && node.id <= t.nodes_.back().id)
            MYST_THROW(ParseError, "node IDs must increase: " << node.id << " after "
                                                              << t.nodes_.back().id);
        // Parents point backwards, so every parent chain ends at a root:
        // selection walks those chains and would never leave a cycle.
        if (node.parent != -1 && t.find(node.parent) == nullptr)
            MYST_THROW(ParseError, "node " << node.id << " has parent " << node.parent
                                           << ", which is neither -1 nor an earlier node");
        t.add_node(std::move(node));
    }
    return t;
}

void
ExecutionTrace::save(const std::string& path) const
{
    to_json().dump_file(path);
}

ExecutionTrace
ExecutionTrace::load(const std::string& path)
{
    return from_json(Json::parse_file(path));
}

uint64_t
ExecutionTrace::fingerprint() const
{
    if (fp_valid_.load(std::memory_order_acquire))
        return fp_.load(std::memory_order_relaxed);

    // Order-independent histogram hash over (op name, count).
    std::unordered_map<std::string, int64_t> hist;
    for (const auto& n : nodes_) {
        if (n.is_op())
            ++hist[n.name];
    }
    std::vector<std::pair<std::string, int64_t>> sorted(hist.begin(), hist.end());
    std::sort(sorted.begin(), sorted.end());
    Fnv1a h;
    for (const auto& [name, count] : sorted) {
        h.mix_bytes(name.data(), name.size());
        h.mix_pod(count);
    }
    fp_.store(h.value(), std::memory_order_relaxed);
    fp_valid_.store(true, std::memory_order_release);
    return h.value();
}

namespace {

/// True for device-designator strings ("cuda:1", "cpu", ...).  Device
/// placement is *rank identity*, not plan structure: symmetric SPMD ranks
/// record "cuda:0" vs "cuda:1" for otherwise identical traces, and replay
/// always runs on the executing session's own simulated device (the string
/// is carried cosmetically).  The structural hash canonicalizes them so
/// equivalent ranks can share one plan.
bool
is_device_string(const std::string& s)
{
    static const char* kPrefixes[] = {"cuda", "cpu", "hip", "xpu"};
    for (const char* p : kPrefixes) {
        const std::size_t n = std::string_view(p).size();
        if (s.compare(0, n, p) != 0)
            continue;
        if (s.size() == n)
            return true;
        if (s[n] != ':')
            continue;
        bool digits = s.size() > n + 1;
        for (std::size_t i = n + 1; i < s.size(); ++i)
            digits = digits && s[i] >= '0' && s[i] <= '9';
        if (digits)
            return true;
    }
    return false;
}

/// Hashes the fields the plan builder and executor consume: tensor_id (the
/// TensorManager's binding key), shape, numel, itemsize and dtype.
/// storage_id/offset are allocator artifacts and device is rank identity —
/// all unread by replay — so they are excluded to keep symmetric ranks'
/// traces structurally equal.
void
mix_tensor_meta(Fnv1a& h, const TensorMeta& t)
{
    h.mix_pod(t.tensor_id);
    h.mix_pod(t.numel);
    h.mix_pod(t.itemsize);
    for (int64_t d : t.shape)
        h.mix_pod(d);
    h.mix_pod(t.shape.size());
    h.mix(t.dtype);
}

void
mix_argument(Fnv1a& h, const Argument& a)
{
    h.mix_pod(a.kind);
    h.mix_pod(a.int_value);
    h.mix_pod(a.double_value);
    h.mix_pod(a.bool_value);
    h.mix(is_device_string(a.string_value) ? std::string("<device>") : a.string_value);
    for (int64_t v : a.int_list)
        h.mix_pod(v);
    h.mix_pod(a.int_list.size());
    for (const auto& t : a.tensors)
        mix_tensor_meta(h, t);
    h.mix_pod(a.tensors.size());
}

} // namespace

uint64_t
ExecutionTrace::structural_fingerprint() const
{
    if (sfp_valid_.load(std::memory_order_acquire))
        return sfp_.load(std::memory_order_relaxed);

    Fnv1a h;
    // Replay-relevant metadata: world size and group membership shape the
    // executor's process-group mapping; rank identity deliberately excluded.
    h.mix_pod(meta_.world_size);
    for (const auto& [pg_id, ranks] : meta_.process_groups) {
        h.mix_pod(pg_id);
        for (int r : ranks)
            h.mix_pod(r);
        h.mix_pod(ranks.size());
    }
    h.mix_pod(meta_.process_groups.size());

    // Full node structure in execution order — everything the plan builder
    // reads: identity, hierarchy, schema, arguments (shapes, dtypes, values,
    // recorded tensor IDs), thread and process-group assignment.
    for (const Node& n : nodes_) {
        h.mix_pod(n.id);
        h.mix(n.name);
        h.mix_pod(n.parent);
        h.mix_pod(n.kind);
        h.mix_pod(n.category);
        h.mix(n.op_schema);
        h.mix_pod(n.tid);
        h.mix_pod(n.pg_id);
        for (const auto& a : n.inputs)
            mix_argument(h, a);
        h.mix_pod(n.inputs.size());
        for (const auto& a : n.outputs)
            mix_argument(h, a);
        h.mix_pod(n.outputs.size());
    }
    h.mix_pod(nodes_.size());

    sfp_.store(h.value(), std::memory_order_relaxed);
    sfp_valid_.store(true, std::memory_order_release);
    return h.value();
}

void
ExecutionTraceObserver::register_callback(std::string output_path)
{
    output_path_ = std::move(output_path);
}

void
ExecutionTraceObserver::start()
{
    trace_ = ExecutionTrace{};
    pending_.clear();
    active_ = true;
}

void
ExecutionTraceObserver::stop()
{
    active_ = false;
    // Nodes arrived in completion order; restore execution (ID) order.
    std::sort(pending_.begin(), pending_.end(),
              [](const Node& a, const Node& b) { return a.id < b.id; });
    trace_ = ExecutionTrace{};
    trace_.meta() = pending_meta_;
    for (auto& n : pending_)
        trace_.add_node(std::move(n));
    pending_.clear();
    if (output_path_.has_value()) {
        trace_.save(*output_path_);
        MYST_DEBUG("execution trace written to " << *output_path_);
    }
}

void
ExecutionTraceObserver::record(Node node)
{
    MYST_CHECK_MSG(active_, "record() on inactive observer");
    pending_.push_back(std::move(node));
}

void
ExecutionTraceObserver::set_meta(TraceMeta meta)
{
    pending_meta_ = std::move(meta);
    trace_.meta() = pending_meta_;
}

} // namespace mystique::et
