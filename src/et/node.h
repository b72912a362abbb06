#pragma once

/// @file
/// Execution-trace node schema.
///
/// Mirrors the paper's Table 2: each node records an operator invocation with
/// its schema, input/output argument metadata (actual values for non-tensor
/// arguments; shape/dtype/ID for tensors), and its parent — the calling
/// operator.  Execution order is implied by node IDs, which are assigned in
/// increasing order of execution (§3.1).

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/op_id.h"
#include "device/kernel.h"

namespace mystique::et {

/// The six-element unique tensor ID tuple from §3.1, plus shape/dtype.
///
/// (tensor_id, storage_id, offset, numel, itemsize, device) distinguishes
/// every tensor and lets the replayer track data dependencies (§4.4).
struct TensorMeta {
    int64_t tensor_id = -1;
    int64_t storage_id = -1;
    int64_t offset = 0;
    int64_t numel = 0;
    int64_t itemsize = 4;
    std::string device = "cuda:0";

    std::vector<int64_t> shape;
    std::string dtype = "float32";

    Json to_json() const;
    /// Throws ParseError on a malformed tuple, a negative dimension, or a
    /// numel that differs from the product of the shape.
    static TensorMeta from_json(const Json& j);

    bool operator==(const TensorMeta&) const = default;
};

/// One input or output argument slot of an operator.
struct Argument {
    enum class Kind {
        kNone,
        kTensor,
        kTensorList,
        kInt,
        kIntList,
        kDouble,
        kBool,
        kString,
    };

    Kind kind = Kind::kNone;
    int64_t int_value = 0;
    double double_value = 0.0;
    bool bool_value = false;
    std::string string_value;
    std::vector<int64_t> int_list;
    /// One entry for kTensor; N entries for kTensorList.
    std::vector<TensorMeta> tensors;

    static Argument none();
    static Argument from_int(int64_t v);
    static Argument from_double(double v);
    static Argument from_bool(bool v);
    static Argument from_string(std::string v);
    static Argument from_int_list(std::vector<int64_t> v);
    static Argument from_tensor(TensorMeta t);
    static Argument from_tensor_list(std::vector<TensorMeta> t);

    Json to_json() const;
    static Argument from_json(const Json& j);
};

/// Node role.  Wrappers (record_function scopes, autograd engine frames,
/// module annotations) carry no operator schema and are never replayed as
/// work; the replayer descends through them (§4.2, Figure 4).
enum class NodeKind { kRoot, kOperator, kWrapper };

const char* to_string(NodeKind k);
NodeKind node_kind_from_string(const std::string& s);

/// One execution-trace node (paper Table 2).
struct Node {
    int64_t id = -1;
    std::string name;
    /// Interned identity of `name` — an in-process cache, never serialized
    /// (OpIds are process-local).  Stamped by the Session at record time;
    /// for traces loaded from JSON it starts invalid and the replay planner
    /// (core/supported_ops) resolves it exactly once per node, through the
    /// const references replay holds (OpIdCache makes that race-free).
    OpIdCache op_id;
    int64_t parent = -1;
    NodeKind kind = NodeKind::kOperator;
    dev::OpCategory category = dev::OpCategory::kATen;
    /// PyTorch-style operator schema string; empty for wrappers and for fused
    /// operators (whose reconstruction metadata the ET does not yet carry,
    /// §4.3.4).
    std::string op_schema;
    /// Issuing thread (1 = main, 2 = autograd engine).
    int tid = 1;
    std::vector<Argument> inputs;
    std::vector<Argument> outputs;
    /// Process-group ID for communication operators; -1 otherwise.
    int64_t pg_id = -1;

    Json to_json() const;
    static Node from_json(const Json& j);

    bool is_op() const { return kind == NodeKind::kOperator; }
};

/// Returns the node's interned OpId, resolving (and caching) it through the
/// process-wide interner on first use.  Unlike the registry-based resolution
/// in core/supported_ops, this *interns* unknown names, so it always returns
/// a valid ID — the right primitive for identity comparisons on analysis
/// paths (tensor-policy derivation, obfuscation scans) where the op need not
/// be registered.
OpId resolve_op_id(const Node& node);

} // namespace mystique::et
