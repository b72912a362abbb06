#include "framework/fused_chain.h"

#include <optional>

#include "common/error.h"
#include "framework/math.h"
#include "framework/op_registry.h"

namespace mystique::fw {

namespace {

// OpId -> table row, built once.  OpIds are dense registry indices, so a
// flat vector gives O(1) steady-state lookups with no string hashing.
const std::vector<const PointwiseInfo*>&
op_id_table()
{
    static const std::vector<const PointwiseInfo*> table = [] {
        ensure_ops_registered();
        std::vector<const PointwiseInfo*> t;
        for (const auto& info : kPointwiseOps) {
            const OpId id = OpRegistry::instance().at(info.op_name).id;
            if (static_cast<std::size_t>(id) >= t.size())
                t.resize(static_cast<std::size_t>(id) + 1, nullptr);
            t[static_cast<std::size_t>(id)] = &info;
        }
        return t;
    }();
    return table;
}

// The chain being executed by the current fused_pointwise dispatch.  The op
// takes no IValue inputs (per-member tensors would defeat the point); the
// replayer stages the call here instead.  Sessions are single-threaded per
// rank, so thread-local is the same isolation Session itself relies on.
thread_local FusedChainCall* tl_call = nullptr;

/// Stage @p st of row K on the chain value @p acc at element @p i; @p b is
/// the stage's tensor operand (null when the row has none).
template <FusedKernel K>
inline float
apply_row(const FusedStage& st, float acc, const float* b, int64_t i)
{
    constexpr PointwiseInfo info = pointwise_info(K);
    if constexpr (info.args == PointwiseArgs::kNormHead)
        return acc; // head-only; applied in run_numeric before the stage loop
    else if constexpr (!info.tensor_operand())
        return pointwise_apply<K>(acc, 0.0f, st.alpha);
    else if constexpr (!info.broadcasts())
        return pointwise_apply<K>(acc, b[i], st.alpha);
    else
        return st.operand_numel == st.numel
                   ? pointwise_apply<K>(acc, b[i], st.alpha)
                   : pointwise_apply<K, true>(acc, b[i % st.operand_numel], st.alpha);
}

inline float
apply_stage(const FusedStage& st, float acc, const float* b, int64_t i)
{
    switch (st.kernel) {
#define MYST_APPLY_ROW(code, ...)                                                    \
      case FusedKernel::code:                                                        \
        return apply_row<FusedKernel::code>(st, acc, b, i);
        MYST_POINTWISE_OPS(MYST_APPLY_ROW)
#undef MYST_APPLY_ROW
    }
    return acc;
}

void
run_numeric(FusedChainCall& call)
{
    // One pass over the data: acc lives in a register across the whole
    // chain; the verbatim path writes/reads an arena tensor per link.
    thread_local std::vector<const float*> operand_ptrs;
    operand_ptrs.clear();
    std::size_t oi = 0;
    for (std::size_t k = 0; k < call.n_stages; ++k) {
        operand_ptrs.push_back(call.stages[k].n_operands > 0
                                   ? call.operands[oi].f32()
                                   : nullptr);
        oi += static_cast<std::size_t>(call.stages[k].n_operands);
    }
    const float* in = call.input.f32();
    float* out = call.out.f32();
    const int64_t numel = call.stages[0].numel;

    // batch_norm head: the statistics math::batch_norm uses, over the
    // *input* tensor, then its float affine expression per element.
    const bool bn_head = call.stages[0].kernel == FusedKernel::kBatchNorm;
    thread_local std::vector<float> bn_mean, bn_inv;
    const float* bn_gamma = nullptr;
    const float* bn_beta = nullptr;
    int64_t bn_spatial = 0, bn_channels = 0;
    if (bn_head) {
        const FusedStage& st = call.stages[0];
        bn_channels = st.channels;
        bn_spatial = st.spatial;
        bn_gamma = call.operands[0].f32();
        bn_beta = call.operands[1].f32();
        bn_mean.resize(static_cast<std::size_t>(bn_channels));
        bn_inv.resize(static_cast<std::size_t>(bn_channels));
        math::batch_norm_stats(in, numel / (bn_channels * bn_spatial), bn_channels,
                               bn_spatial, st.alpha, bn_mean.data(), bn_inv.data());
    }

    for (int64_t i = 0; i < numel; ++i) {
        float acc;
        std::size_t k = 0;
        if (bn_head) {
            const auto ci = static_cast<std::size_t>((i / bn_spatial) % bn_channels);
            acc = (in[i] - bn_mean[ci]) * bn_inv[ci] * bn_gamma[ci] + bn_beta[ci];
            k = 1;
        } else {
            acc = in[i];
        }
        for (; k < call.n_stages; ++k) {
            const FusedStage& st = call.stages[k];
            if (st.identity)
                continue;
            acc = apply_stage(st, acc, operand_ptrs[k], i);
        }
        out[i] = acc;
    }
}

std::vector<IValue>
fused_chain_exec(Session& s, const std::vector<IValue>&)
{
    FusedChainCall* call = tl_call;
    MYST_CHECK_MSG(call != nullptr,
                   "mystique::fused_pointwise is replayer-internal: stage a "
                   "FusedChainCall via run_fused_chain()");

    if (!call->dead) {
        call->out = s.alloc(call->out_shape);
        if (s.numeric())
            run_numeric(*call);
    }

    // Replicate the verbatim timeline: per member, the same host dispatch
    // charge (member 0's is paid by this op's own dispatch) and the same
    // device launch — identical KernelDesc, launch order and jitter draws.
    // start_at chains each launch behind its predecessor exactly like the
    // intermediate tensors' ready timestamps did.
    const double per_op_dispatch =
        s.options().platform.dispatch_us * s.options().dispatch.op_cost_scale;
    std::optional<double> start_at;
    std::size_t oi = 0;
    thread_local std::vector<Tensor> ins;
    static const std::vector<Tensor> kNoOutputs;
    for (std::size_t k = 0; k < call->n_stages; ++k) {
        const FusedStage& st = call->stages[k];
        if (k > 0)
            s.cpu_advance(per_op_dispatch);
        // Async executor: each member's jitter draw is a function of its own
        // node identity, matching what the unfused op would draw there.
        if (s.node_reseed_mode())
            s.reseed_for_node(st.node_id);
        ins.clear();
        if (k == 0)
            ins.push_back(call->input);
        for (int t = 0; t < st.n_operands; ++t)
            ins.push_back(call->operands[oi++]);
        const bool last = k + 1 == call->n_stages;
        const auto& rec = s.launch(st.desc, dev::kComputeStream, ins,
                                   last && !call->dead
                                       ? std::vector<Tensor>{call->out}
                                       : kNoOutputs,
                                   std::nullopt, start_at);
        start_at = rec.interval.end;
    }
    ins.clear();
    return {};
}

} // namespace

const PointwiseInfo*
fused_kernel_info(OpId op)
{
    const auto& table = op_id_table();
    const auto idx = static_cast<std::size_t>(op);
    return idx < table.size() ? table[idx] : nullptr;
}

OpId
fused_chain_op_id()
{
    return MYST_OP("mystique::fused_pointwise");
}

void
register_fused_chain_op(OpRegistry& reg)
{
    // Schemaless + kFused keeps it out of SupportedSet::build (§4.3.4), so
    // registering it does not perturb supported-op fingerprints.
    reg.register_op({.name = "mystique::fused_pointwise",
                     .schema = "",
                     .category = dev::OpCategory::kFused,
                     .fn = fused_chain_exec,
                     .backward = {},
                     .grad_name = {}});
}

void
run_fused_chain(Session& s, FusedChainCall& call)
{
    MYST_CHECK_MSG(call.n_stages > 0, "fused chain without stages");
    tl_call = &call;
    s.call(fused_chain_op_id(), {});
    tl_call = nullptr;
}

} // namespace mystique::fw
