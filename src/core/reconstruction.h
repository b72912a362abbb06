#pragma once

/// @file
/// Operator reconstruction (§4.3).
///
/// ATen operators are rebuilt from their recorded schema: schema string →
/// parsed FunctionSchema → generated TorchScript-style IR text (non-tensor
/// argument *values* baked in as prim::Constant nodes) → parse_ir →
/// CompilationUnit::create_function → callable.  Communication and custom
/// operators dispatch directly through the framework registry with their
/// recorded arguments (process groups are remapped by the replayer).
/// All reconstruction happens during replay initialization so the hot loop
/// only invokes prebuilt callables (§4.3.4).

#include <memory>
#include <optional>
#include <vector>

#include "core/tensor_manager.h"
#include "et/node.h"
#include "jit/ir.h"

namespace mystique::core {

/// One reconstructed replay target.
struct ReconstructedOp {
    enum class Kind {
        kCompiledIr, ///< ATen: execute through the compiled IR function
        kDirect,     ///< comm/custom: direct registry dispatch
        kSkipped,    ///< unsupported (fused / unregistered custom)
    };

    Kind kind = Kind::kSkipped;
    const et::Node* node = nullptr;
    const jit::Function* fn = nullptr; ///< valid for kCompiledIr
    /// Interned op identity, resolved once at plan-build time so the hot
    /// replay loop dispatches kDirect ops without any name lookup.
    OpId op_id = kInvalidOpId;
    /// Stream the op's kernels ran on originally (from the profiler trace).
    std::optional<int> stream;
    /// Generated IR text (kept for codegen and debugging).
    std::string ir_text;
    /// Index into the plan's fused_groups(), or -1 when the op executes
    /// standalone.  Set by the plan optimizer; members keep their kind (and
    /// thus their coverage accounting) — only execution is redirected.
    int fused_group = -1;
    /// True for the first member of its group: the hot loop executes the
    /// whole group there and skips the remaining members.
    bool fused_head = false;
};

/// Builds callables for selected nodes; owns the compilation unit.
class Reconstructor {
  public:
    Reconstructor() = default;

    /// Reconstructs one node (@p supported from the selection pass).
    ReconstructedOp reconstruct(const et::Node& node, bool supported);

    /// The reconstruction kind this process produces for (@p node,
    /// @p supported) — the single decision shared by reconstruct() and the
    /// plan-restore path (ReplayPlan::from_json), which uses it to detect
    /// registry drift against a document's recorded kinds.
    static ReconstructedOp::Kind decide_kind(const et::Node& node, bool supported)
    {
        if (!supported)
            return ReconstructedOp::Kind::kSkipped;
        if (node.category == dev::OpCategory::kComm ||
            node.category == dev::OpCategory::kCustom)
            return ReconstructedOp::Kind::kDirect;
        return ReconstructedOp::Kind::kCompiledIr;
    }

    /// Compiles an already-generated graph into this unit — the plan-restore
    /// path (ReplayPlan::from_json) parses recorded IR text directly instead
    /// of re-deriving it from schemas, and ops with identical IR share the
    /// resulting function.
    const jit::Function& create_function(const std::string& name, jit::Graph graph)
    {
        return cu_.create_function(name, std::move(graph));
    }

  private:
    jit::CompilationUnit cu_;
};

/// Executes a reconstructed op: resolves tensor arguments through the tensor
/// manager, invokes the callable, and binds outputs back to their recorded
/// tensor IDs.  Returns false when the op was skipped.
bool execute_reconstructed(fw::Session& session, const ReconstructedOp& op,
                           TensorManager& tm);

} // namespace mystique::core
