#include "et/trace_db.h"

#include <algorithm>
#include <filesystem>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "common/fs_util.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace mystique::et {

namespace {

/// One sorted file's outcome: its parsed trace, or the what() of the
/// std::exception that reading or parsing it threw.
struct LoadSlot {
    std::shared_ptr<const ExecutionTrace> trace;
    std::string error;
};

} // namespace

std::size_t
TraceDatabase::add(ExecutionTrace trace)
{
    traces_.push_back(std::make_shared<const ExecutionTrace>(std::move(trace)));
    return traces_.size() - 1;
}

std::size_t
TraceDatabase::load_directory(const std::string& dir)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    // A fleet ingest directory may be absent (not yet synced) or racing a
    // producer; both are degraded inputs, not programming errors, so they
    // warn and load nothing rather than abort the whole database build.
    try {
        for (const auto& entry : fs::directory_iterator(dir)) {
            if (entry.is_regular_file() && entry.path().extension() == ".json")
                files.push_back(entry.path());
        }
    } catch (const std::exception& e) {
        MYST_WARN("trace directory '" << dir << "' unreadable, loading nothing: "
                                      << e.what());
        return 0;
    }
    std::sort(files.begin(), files.end());

    std::vector<LoadSlot> slots(files.size());
    // Workers claim and read files under one lock, in sorted order, so
    // read_file's `fs.read` hits follow that order whichever worker claims a
    // file; parsing runs outside the lock.  Any worker may claim the next
    // file: no worker ever waits for a particular other one to be scheduled.
    std::mutex read_mu;
    std::size_t next_file = 0; // guarded by read_mu
    const auto work = [&] {
        for (;;) {
            std::unique_lock<std::mutex> lock(read_mu);
            if (next_file == files.size())
                return;
            const std::size_t i = next_file++;
            try {
                std::string text = read_file(files[i].string());
                lock.unlock();
                // The text is freed once its document is built.
                const Json doc = Json::parse(std::exchange(text, {}));
                auto trace = std::make_shared<const ExecutionTrace>(ExecutionTrace::from_json(doc));
                (void)trace->fingerprint(); // analyze() reads it for every trace
                slots[i].trace = std::move(trace);
            } catch (const std::exception& e) {
                // std::exception, not just MystiqueError: a trace that fails
                // mid-parse with bad_alloc/filesystem_error is every bit as
                // skippable as one that fails schema validation.
                slots[i].error = e.what();
            }
        }
    };

    // The calling thread is one of the workers; an empty or one-file
    // directory starts no thread.
    const std::size_t workers =
        std::min<std::size_t>(files.size(), std::max(1u, std::thread::hardware_concurrency()));
    std::optional<ThreadPool> pool;
    std::vector<std::future<void>> helpers;
    if (workers > 1) {
        pool.emplace(workers - 1);
        for (std::size_t w = 1; w < workers; ++w)
            helpers.push_back(pool->submit(work));
    }
    work();
    for (auto& helper : helpers)
        helper.get();

    std::size_t loaded = 0;
    for (std::size_t i = 0; i < files.size(); ++i) {
        if (slots[i].trace == nullptr) {
            MYST_WARN("skipping unreadable trace " << files[i].string() << ": "
                                                   << slots[i].error);
            continue;
        }
        traces_.push_back(std::move(slots[i].trace));
        ++loaded;
    }
    return loaded;
}

const ExecutionTrace&
TraceDatabase::trace(std::size_t index) const
{
    MYST_CHECK_MSG(index < traces_.size(), "trace index out of range: " << index);
    return *traces_[index];
}

std::shared_ptr<const ExecutionTrace>
TraceDatabase::trace_handle(std::size_t index) const
{
    MYST_CHECK_MSG(index < traces_.size(), "trace index out of range: " << index);
    return traces_[index];
}

std::vector<TraceGroup>
TraceDatabase::analyze() const
{
    std::unordered_map<uint64_t, TraceGroup> groups;
    for (std::size_t i = 0; i < traces_.size(); ++i) {
        const uint64_t fp = traces_[i]->fingerprint();
        auto& g = groups[fp];
        g.fingerprint = fp;
        if (g.members.empty())
            g.representative_workload = traces_[i]->meta().workload;
        g.members.push_back(i);
    }
    std::vector<TraceGroup> out;
    out.reserve(groups.size());
    for (auto& [fp, g] : groups) {
        g.population_weight =
            traces_.empty()
                ? 0.0
                : static_cast<double>(g.members.size()) / static_cast<double>(traces_.size());
        out.push_back(std::move(g));
    }
    std::sort(out.begin(), out.end(), [](const TraceGroup& a, const TraceGroup& b) {
        if (a.population_weight != b.population_weight)
            return a.population_weight > b.population_weight;
        return a.fingerprint < b.fingerprint;
    });
    return out;
}

std::vector<std::size_t>
TraceDatabase::select_top(std::size_t top_k) const
{
    std::vector<std::size_t> out;
    for (const auto& g : analyze()) {
        if (out.size() >= top_k)
            break;
        out.push_back(g.representative());
    }
    return out;
}

ExecutionTrace
build_trace(const ExecutionTrace& raw, const BuilderOptions& opts)
{
    // Validate parents refer to earlier nodes (or -1 for roots).
    std::unordered_map<int64_t, bool> seen;
    for (const auto& n : raw.nodes()) {
        if (n.parent >= 0 && seen.find(n.parent) == seen.end())
            MYST_THROW(ParseError, "node " << n.id << " references unknown parent " << n.parent);
        seen[n.id] = true;
        if (n.is_op() && n.op_schema.empty() && n.category != dev::OpCategory::kFused)
            MYST_THROW(ParseError,
                       "operator node " << n.id << " ('" << n.name << "') lacks a schema");
    }

    ExecutionTrace out;
    out.meta() = raw.meta();

    if (!opts.renumber_ids) {
        for (const auto& n : raw.nodes()) {
            if (opts.drop_empty_roots && n.kind == NodeKind::kRoot &&
                raw.children(n.id).empty())
                continue;
            out.add_node(n);
        }
        return out;
    }

    std::unordered_map<int64_t, int64_t> remap;
    remap[-1] = -1;
    int64_t next = 0;
    for (const auto& n : raw.nodes()) {
        if (opts.drop_empty_roots && n.kind == NodeKind::kRoot && raw.children(n.id).empty())
            continue;
        Node copy = n;
        remap[n.id] = next;
        copy.id = next++;
        auto it = remap.find(n.parent);
        copy.parent = it == remap.end() ? -1 : it->second;
        out.add_node(std::move(copy));
    }
    return out;
}

} // namespace mystique::et
