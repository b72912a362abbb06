#pragma once

/// @file
/// The fusable pointwise op table.
///
/// MYST_POINTWISE_OPS has one row per op the plan optimizer may fuse: its
/// registered name, kernel family label, flops per element and argument
/// kind.  The verbatim ops (ops_pointwise.cpp, and batch_norm's launch in
/// ops_norm_pool.cpp), fusion legality (core/plan_optimizer) and the
/// fused-chain interpreter (fused_chain.cpp) all read it, and
/// pointwise_apply<K> is each row's only per-element formula.  A fused stage
/// replays bit-identical to its verbatim op because both build the same
/// KernelDesc from the row and evaluate the same formula.

#include <cmath>
#include <cstdint>

#include "device/kernel.h"
#include "framework/kernel_utils.h"

namespace mystique::fw {

/// What an op reads besides the chain value at slot 0.
enum class PointwiseArgs : int {
    kUnary,          ///< nothing
    kTensor,         ///< a tensor of the same numel at slot 1
    kBroadcast,      ///< a tensor at slot 1 whose numel divides slot 0's
    kBroadcastAlpha, ///< kBroadcast plus a Scalar alpha at slot 2
    kScalar,         ///< a Scalar at slot 1
    kNormHead,       ///< NCHW input, per-channel weight/bias at slots 1-2 and
                     ///< eps at slot 4; legal only as a chain's first member,
                     ///< since it reads the whole input for batch statistics
};

// X(code, op name, kernel family, flops per element, argument kind)
#define MYST_POINTWISE_OPS(X)                                                      \
    X(kAdd, "aten::add.Tensor", "add", 1.0, kBroadcastAlpha)                       \
    X(kSub, "aten::sub.Tensor", "sub", 1.0, kBroadcastAlpha)                       \
    X(kMul, "aten::mul.Tensor", "mul", 1.0, kBroadcast)                            \
    X(kMulScalar, "aten::mul.Scalar", "muls", 1.0, kScalar)                        \
    X(kDiv, "aten::div.Tensor", "div", 1.0, kTensor)                               \
    X(kRelu, "aten::relu", "relu", 1.0, kUnary)                                    \
    X(kSigmoid, "aten::sigmoid", "sigmoid", 4.0, kUnary)                           \
    X(kTanh, "aten::tanh", "tanh", 4.0, kUnary)                                    \
    X(kExp, "aten::exp", "exp", 4.0, kUnary)                                       \
    X(kGelu, "aten::gelu", "gelu", 8.0, kUnary)                                    \
    X(kReluBwd, "aten::threshold_backward", "relu_bwd", 1.0, kTensor)              \
    X(kSigmoidBwd, "aten::sigmoid_backward", "sigmoid_bwd", 1.0, kTensor)          \
    X(kTanhBwd, "aten::tanh_backward", "tanh_bwd", 1.0, kTensor)                   \
    X(kGeluBwd, "aten::gelu_backward", "gelu_bwd", 1.0, kTensor)                   \
    X(kBatchNorm, "aten::batch_norm", "batch_norm", 8.0, kNormHead)

/// One code per table row, in row order.
enum class FusedKernel : int {
#define MYST_POINTWISE_CODE(code, ...) code,
    MYST_POINTWISE_OPS(MYST_POINTWISE_CODE)
#undef MYST_POINTWISE_CODE
};

/// One table row.
struct PointwiseInfo {
    FusedKernel kernel;
    const char* op_name;   ///< interned at serialization boundaries only
    const char* family;    ///< kernel family label of the launch descriptor
    double flops_per_elem;
    PointwiseArgs args;

    /// A tensor operand at slot 1 besides the chain value.
    constexpr bool tensor_operand() const
    {
        return args == PointwiseArgs::kTensor || broadcasts();
    }
    /// The slot-1 operand's numel may divide the chain value's.
    constexpr bool broadcasts() const
    {
        return args == PointwiseArgs::kBroadcast ||
               args == PointwiseArgs::kBroadcastAlpha;
    }
    /// Slot of the recorded scalar the formula reads as alpha (add/sub
    /// alpha, mul.Scalar's scalar, batch_norm's eps); 0 when there is none.
    constexpr int scalar_slot() const
    {
        switch (args) {
          case PointwiseArgs::kBroadcastAlpha: return 2;
          case PointwiseArgs::kScalar: return 1;
          case PointwiseArgs::kNormHead: return 4;
          default: return 0;
        }
    }
};

inline constexpr PointwiseInfo kPointwiseOps[] = {
#define MYST_POINTWISE_INFO(code, name, family, flops, args)                        \
    {FusedKernel::code, name, family, flops, PointwiseArgs::args},
    MYST_POINTWISE_OPS(MYST_POINTWISE_INFO)
#undef MYST_POINTWISE_INFO
};

constexpr const PointwiseInfo&
pointwise_info(FusedKernel k)
{
    return kPointwiseOps[static_cast<int>(k)];
}

/// The launch descriptor of row @p info over @p numel elements — the one the
/// verbatim op launches and a fused stage replays.
inline dev::KernelDesc
pointwise_desc(const PointwiseInfo& info, int64_t numel)
{
    if (info.args == PointwiseArgs::kNormHead)
        return norm_kernel(info.family, numel, info.flops_per_elem);
    return pointwise_kernel(info.family, numel, info.tensor_operand() ? 2 : 1,
                            info.flops_per_elem);
}

/// Row K's per-element formula: @p x is the chain value, @p b the slot-1
/// tensor operand's element (0 when the row has none) and @p alpha the
/// scalar at the row's scalar_slot (1 when it has none).  Broadcast says @p b
/// came from a broadcast operand; only sub reads it, to keep both of its
/// spellings (x + (-alpha) * b and x - alpha * b differ in NaN sign and
/// payload bits, and replayed outputs must not move).  batch_norm's affine
/// needs per-channel statistics and runs where they are computed.
template <FusedKernel K, bool Broadcast = false>
inline float
pointwise_apply(float x, float b, float alpha)
{
    static_assert(pointwise_info(K).args != PointwiseArgs::kNormHead);
    if constexpr (K == FusedKernel::kAdd)
        return x + alpha * b;
    else if constexpr (K == FusedKernel::kSub)
        return Broadcast ? x + (-alpha) * b : x - alpha * b;
    else if constexpr (K == FusedKernel::kMul)
        return x * b;
    else if constexpr (K == FusedKernel::kMulScalar)
        return x * alpha;
    else if constexpr (K == FusedKernel::kDiv)
        return x / b;
    else if constexpr (K == FusedKernel::kRelu)
        return x > 0.0f ? x : 0.0f;
    else if constexpr (K == FusedKernel::kSigmoid)
        return 1.0f / (1.0f + std::exp(-x));
    else if constexpr (K == FusedKernel::kTanh)
        return std::tanh(x);
    else if constexpr (K == FusedKernel::kExp)
        return std::exp(x);
    else if constexpr (K == FusedKernel::kGelu)
        return 0.5f * x * (1.0f + std::erf(x * 0.70710678f)); // exact (erf) GELU
    else if constexpr (K == FusedKernel::kReluBwd) // x = grad, b = input
        return b > 0.0f ? x : 0.0f;
    else if constexpr (K == FusedKernel::kSigmoidBwd) // x = grad, b = output
        return x * b * (1.0f - b);
    else if constexpr (K == FusedKernel::kTanhBwd) // x = grad, b = output
        return x * (1.0f - b * b);
    else if constexpr (K == FusedKernel::kGeluBwd) { // x = grad, b = input
        const float cdf = 0.5f * (1.0f + std::erf(b * 0.70710678f));
        const float pdf = 0.39894228f * std::exp(-0.5f * b * b);
        return x * (cdf + b * pdf);
    } else
        static_assert(K != K, "table row without a formula");
}

} // namespace mystique::fw
