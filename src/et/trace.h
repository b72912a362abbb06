#pragma once

/// @file
/// The execution trace container and the observer that records it.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "et/node.h"

namespace mystique::et {

/// Run-level metadata stored in the trace header.
struct TraceMeta {
    std::string workload;
    std::string platform;
    int rank = 0;
    int world_size = 1;
    int iteration = 0;
    uint64_t seed = 0;
    /// Process-group definitions: ET pg id → member ranks.  Needed so the
    /// replayer can "create new process groups and map them to the original
    /// groups" (§4.3.2).
    std::map<int64_t, std::vector<int>> process_groups;

    Json to_json() const;
    static TraceMeta from_json(const Json& j);
};

/// A complete per-process execution trace: nodes in execution (ID) order.
class ExecutionTrace {
  public:
    TraceMeta& meta() { return meta_; }
    const TraceMeta& meta() const { return meta_; }

    /// Appends a node; IDs must be strictly increasing.
    void add_node(Node node);

    const std::vector<Node>& nodes() const { return nodes_; }
    bool empty() const { return nodes_.empty(); }
    std::size_t size() const { return nodes_.size(); }

    /// Node lookup by ID; nullptr when absent.
    const Node* find(int64_t id) const;

    /// IDs of the direct children of @p id, in execution order.
    std::vector<int64_t> children(int64_t id) const;

    /// First node whose name equals @p name (wrapper lookup for subtrace
    /// replay, §7.1); nullptr when absent.
    const Node* find_by_name(const std::string& name) const;

    /// Operator count by category (wrappers excluded).
    std::unordered_map<dev::OpCategory, int64_t> count_by_category() const;

    /// Serialization.  Round-tripping through JSON (in memory or on disk)
    /// preserves both fingerprints below bit-exactly — benchmark-package
    /// provenance depends on it: core::verify_package re-hashes the packaged
    /// execution_trace.json and compares against the manifest, so any field
    /// the fingerprints cover must survive save → load unchanged (doubles
    /// are emitted in shortest round-trip-safe form by common/json.h).
    /// Enforced by tests/et/trace_test.cpp.
    /// from_json throws ParseError on a malformed document, including node
    /// IDs that do not increase and malformed tensor metadata
    /// (TensorMeta::from_json).
    Json to_json() const;
    static ExecutionTrace from_json(const Json& j);
    void save(const std::string& path) const;
    static ExecutionTrace load(const std::string& path);

    /// Stable fingerprint of the operator mix (name → count histogram hash);
    /// used by the trace-database analyzer to group equivalent traces (§8.2).
    /// Deliberately coarse: it ignores shapes and ordering, because the
    /// paper's grouping policy replays one representative per operator-mix
    /// group regardless of member-to-member shape drift.
    /// Computed lazily and cached (CachedHash) — repeated calls are O(1),
    /// and concurrent first-calls on a shared const trace are race-free.
    uint64_t fingerprint() const;

    /// Stable *structural* fingerprint: node order, names, schemas, argument
    /// values, tensor shapes/dtypes/IDs, thread and process-group
    /// assignments, plus the replay-relevant metadata (world size, process
    /// groups).  Two traces with equal structural fingerprints compile to
    /// interchangeable replay plans, so this — not the coarse operator-mix
    /// hash — is the plan cache's trace key.  Rank-identity artifacts are
    /// excluded — meta().rank, device strings ("cuda:0" vs "cuda:1"),
    /// storage-id/offset allocator state — because symmetric SPMD ranks
    /// differ only in those and must share a plan; everything the plan
    /// builder or executor actually reads is hashed.  Lazily computed and
    /// cached like fingerprint().
    uint64_t structural_fingerprint() const;

  private:
    TraceMeta meta_;
    std::vector<Node> nodes_; ///< strictly increasing IDs; find() binary-searches

    CachedHash fp_;
    CachedHash sfp_;
};

/// Records execution into an ExecutionTrace.
///
/// API mirrors the paper's ExecutionGraphObserver usage (§4.1):
///
///   et::ExecutionTraceObserver obs;
///   obs.register_callback("/tmp/execution_trace.json");
///   ...
///   obs.start();   // at iteration N
///   obs.stop();    // at iteration N+1  → trace written to the path
///
/// The framework Session invokes record() for every completed node while the
/// observer is active.
class ExecutionTraceObserver {
  public:
    /// Sets the output path written at stop(); optional — the in-memory
    /// trace is always available via trace().
    void register_callback(std::string output_path);

    /// Begins recording (clears any previous trace).
    void start();

    /// Ends recording; writes the JSON file when a path is registered.
    void stop();

    bool active() const { return active_; }

    /// Called by the Session for each completed node while active.  Nodes
    /// arrive in *completion* order (children before parents); stop() sorts
    /// them back into execution (ID) order.
    void record(Node node);

    /// Sets header metadata (Session fills this at start()).
    void set_meta(TraceMeta meta);

    /// The recorded trace (valid after stop()).
    const ExecutionTrace& trace() const { return trace_; }
    ExecutionTrace take_trace() { return std::move(trace_); }

  private:
    bool active_ = false;
    std::optional<std::string> output_path_;
    TraceMeta pending_meta_;
    std::vector<Node> pending_;
    ExecutionTrace trace_;
};

} // namespace mystique::et
