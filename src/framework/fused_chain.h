#pragma once

/// @file
/// Loop-fused interpreter kernel for replayed pointwise chains.
///
/// The plan optimizer (core/plan_optimizer) rewrites runs of supported
/// elementwise ops into one FusedChainCall; this file is the execution half:
/// a single registered op ("mystique::fused_pointwise") that walks the whole
/// chain in one pass over the data, keeping every intermediate value in a
/// register — no per-link dispatch, IR interpretation, or arena round-trip.
///
/// The timing contract is strict: a fused chain must replay *bit-identical*
/// to the verbatim op-by-op execution.  The interpreter therefore re-issues
/// one device launch per original member (same KernelDesc, same order, same
/// per-launch jitter draw) and charges the same host-side dispatch cost per
/// member; only the CPU-side interpretation machinery is collapsed.  Which
/// ops may be members, their descriptors and their per-element formulas all
/// come from the table in framework/pointwise.h, which the verbatim ops read
/// too — a stage and its verbatim op share one definition.

#include <cstdint>
#include <vector>

#include "common/op_id.h"
#include "device/kernel.h"
#include "framework/pointwise.h"
#include "framework/session.h"

namespace mystique::fw {

/// The table row of an interned op id; nullptr when the op is not fusable.
/// String-keyed only at first use (MYST_OP interning) — steady-state
/// lookups are a flat array index.
const PointwiseInfo* fused_kernel_info(OpId op);

/// One link of a fused chain, fully pre-resolved at plan-optimize time.
struct FusedStage {
    FusedKernel kernel = FusedKernel::kAdd;
    int64_t numel = 0;          ///< chain value numel (all stages agree)
    int64_t operand_numel = 0;  ///< 0 = no tensor operand; < numel = broadcast
    int n_operands = 0;         ///< tensor operands consumed from the call
                                ///< (1 for binary ops, 2 for batch_norm)
    int64_t channels = 0;       ///< batch_norm head: C of the NCHW input
    int64_t spatial = 0;        ///< batch_norm head: H*W of the NCHW input
    float alpha = 1.0f;         ///< the row's scalar: add/sub alpha,
                                ///< mul.Scalar scalar, bn eps
    bool identity = false;      ///< algebraically a no-op: skip the arithmetic
    int64_t node_id = -1;       ///< original ET node (async per-node reseeding)
    dev::KernelDesc desc;       ///< prebuilt launch descriptor (verbatim-equal)
};

/// Arguments for one fused-chain execution.  The caller keeps one of these
/// alive across iterations and re-fills the tensors each time; `out` is
/// written back by run_fused_chain (undefined for dead chains).
struct FusedChainCall {
    const FusedStage* stages = nullptr;
    std::size_t n_stages = 0;
    bool dead = false;          ///< output unconsumed: no alloc, no numerics
    Shape out_shape;            ///< final output shape (ignored when dead)
    Tensor input;               ///< chain entry value (slot 0 of member 0)
    std::vector<Tensor> operands; ///< per-stage tensor operands, in stage order
    Tensor out;                 ///< result, filled by run_fused_chain
};

/// Interned id of "mystique::fused_pointwise".
OpId fused_chain_op_id();

/// Registers the fused-chain op (called from ensure_ops_registered).
void register_fused_chain_op(OpRegistry& reg);

/// Executes @p call through Session::call on fused_chain_op_id(), so
/// dispatch accounting, the sweep summary and the profiler all see a real op.
void run_fused_chain(Session& s, FusedChainCall& call);

} // namespace mystique::fw
