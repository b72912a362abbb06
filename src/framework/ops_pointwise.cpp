/// @file
/// Pointwise / unary ATen operators.  Every op with a row in the
/// framework/pointwise.h table runs one template body, pointwise_fn<K>,
/// which takes its formula, launch descriptor and arity from that row.

#include "common/error.h"
#include "framework/kernel_utils.h"
#include "framework/math.h"
#include "framework/op_registry.h"
#include "framework/pointwise.h"
#include "framework/session.h"

namespace mystique::fw {

namespace {

/// Row K's formula over every element of @p a into @p out; @p b is the
/// slot-1 operand (unused when the row has none), read at the same index or,
/// under broadcast, modulo its numel.
template <FusedKernel K>
void
pointwise_loop(const Tensor& a, const Tensor* b, float alpha, float* out)
{
    const float* x = a.f32();
    const int64_t n = a.numel();
    if constexpr (!pointwise_info(K).tensor_operand()) {
        for (int64_t i = 0; i < n; ++i)
            out[i] = pointwise_apply<K>(x[i], 0.0f, alpha);
    } else {
        const float* y = b->f32();
        const int64_t bn = b->numel();
        if (bn == n) {
            for (int64_t i = 0; i < n; ++i)
                out[i] = pointwise_apply<K>(x[i], y[i], alpha);
        } else if constexpr (pointwise_info(K).broadcasts()) {
            for (int64_t i = 0; i < n; ++i)
                out[i] = pointwise_apply<K, true>(x[i], y[i % bn], alpha);
        }
    }
}

/// Checks row @p info's slot-1 operand against the chain value: the same
/// numel, or for broadcast rows the limited broadcast we support (other's
/// numel divides self's and maps onto its trailing elements: bias / scalar
/// patterns).
void
check_operand(const PointwiseInfo& info, const Tensor& a, const Tensor& b)
{
    if (info.broadcasts())
        MYST_CHECK_MSG(b.numel() > 0 && a.numel() % b.numel() == 0,
                       "unsupported broadcast: " << shape_str(a.shape()) << " with "
                                                 << shape_str(b.shape()));
    else
        MYST_CHECK_MSG(a.numel() == b.numel(),
                       info.family << " requires matching shapes");
}

/// The verbatim op of table row K.
template <FusedKernel K>
std::vector<IValue>
pointwise_fn(Session& s, const std::vector<IValue>& in)
{
    constexpr PointwiseInfo info = pointwise_info(K);
    const Tensor& a = in[0].tensor();
    const float alpha = info.scalar_slot() > 0
                            ? static_cast<float>(in[info.scalar_slot()].to_double())
                            : 1.0f;
    const Tensor* b = nullptr;
    if constexpr (info.tensor_operand()) {
        b = &in[1].tensor();
        check_operand(info, a, *b);
    }
    Tensor out = s.alloc(a.shape());
    if (s.numeric())
        pointwise_loop<K>(a, b, alpha, out.f32());
    s.launch(pointwise_desc(info, a.numel()), dev::kComputeStream,
             b != nullptr ? std::vector<Tensor>{a, *b} : std::vector<Tensor>{a}, {out});
    return {IValue(out)};
}

/// Gradient of `other` under broadcast: reduce grad over the broadcast dims.
Tensor
reduce_grad_to(Session& s, const Tensor& grad, const Tensor& like)
{
    if (grad.numel() == like.numel())
        return grad;
    const Tensor flat = grad.view_as({grad.numel() / like.numel(), like.numel()});
    Tensor summed = s.call_t(MYST_OP("aten::sum.dim_IntList"),
                             {IValue(flat), IValue(std::vector<int64_t>{0}), IValue(false)});
    return summed.view_as(like.shape());
}

std::vector<Tensor>
add_backward(Session& s, const AutogradContext& ctx, const std::vector<Tensor>& gouts)
{
    const Tensor& go = gouts[0];
    const Tensor& a = ctx.inputs[0].tensor();
    const Tensor& b = ctx.inputs[1].tensor();
    const double alpha = ctx.inputs[2].to_double();
    Tensor ga = go;
    Tensor gb;
    if (b.requires_grad()) {
        gb = reduce_grad_to(s, go, b);
        if (alpha != 1.0)
            gb = s.call_t(MYST_OP("aten::mul.Scalar"), {IValue(gb), IValue(alpha)});
    }
    (void)a;
    return {ga, gb, Tensor()};
}

std::vector<IValue>
add_inplace_fn(Session& s, const std::vector<IValue>& in)
{
    const Tensor& a = in[0].tensor();
    const Tensor& b = in[1].tensor();
    const float alpha = static_cast<float>(in[2].to_double());
    check_operand(pointwise_info(FusedKernel::kAdd), a, b);
    Tensor a_mut = a;
    if (s.numeric())
        pointwise_loop<FusedKernel::kAdd>(a, &b, alpha, a_mut.f32());
    s.launch(pointwise_kernel("add_", a.numel(), 2), dev::kComputeStream, {a, b}, {a_mut});
    return {IValue(a_mut)};
}

std::vector<Tensor>
sub_backward(Session& s, const AutogradContext& ctx, const std::vector<Tensor>& gouts)
{
    const Tensor& go = gouts[0];
    const Tensor& b = ctx.inputs[1].tensor();
    const double alpha = ctx.inputs[2].to_double();
    Tensor gb;
    if (b.requires_grad()) {
        gb = reduce_grad_to(s, go, b);
        gb = s.call_t(MYST_OP("aten::mul.Scalar"), {IValue(gb), IValue(-alpha)});
    }
    return {go, gb, Tensor()};
}

std::vector<Tensor>
mul_backward(Session& s, const AutogradContext& ctx, const std::vector<Tensor>& gouts)
{
    const Tensor& go = gouts[0];
    const Tensor& a = ctx.inputs[0].tensor();
    const Tensor& b = ctx.inputs[1].tensor();
    Tensor ga, gb;
    if (a.requires_grad())
        ga = s.call_t(MYST_OP("aten::mul.Tensor"), {IValue(go), IValue(b)});
    if (b.requires_grad()) {
        Tensor t = s.call_t(MYST_OP("aten::mul.Tensor"), {IValue(go), IValue(a)});
        gb = reduce_grad_to(s, t, b);
    }
    return {ga, gb};
}

std::vector<Tensor>
mul_scalar_backward(Session& s, const AutogradContext& ctx,
                    const std::vector<Tensor>& gouts)
{
    Tensor ga = s.call_t(MYST_OP("aten::mul.Scalar"),
                         {IValue(gouts[0]), IValue(ctx.inputs[1].to_double())});
    return {ga, Tensor()};
}

std::vector<IValue>
dropout_fn(Session& s, const std::vector<IValue>& in)
{
    const Tensor& a = in[0].tensor();
    const double p = in[1].to_double();
    const bool train = in[2].to_bool();
    Tensor out = s.alloc(a.shape());
    Tensor mask = s.alloc(a.shape());
    if (s.numeric()) {
        const float scale = train && p < 1.0 ? 1.0f / (1.0f - static_cast<float>(p)) : 1.0f;
        for (int64_t i = 0; i < a.numel(); ++i) {
            const bool keep = !train || s.rng().uniform() >= p;
            mask.f32()[i] = keep ? 1.0f : 0.0f;
            out.f32()[i] = keep ? a.f32()[i] * scale : 0.0f;
        }
    }
    s.launch(pointwise_kernel("dropout", a.numel(), 1, 2.0), dev::kComputeStream, {a},
             {out, mask});
    return {IValue(out), IValue(mask)};
}

std::vector<Tensor>
dropout_backward(Session& s, const AutogradContext& ctx, const std::vector<Tensor>& gouts)
{
    const double p = ctx.inputs[1].to_double();
    const double scale = p < 1.0 ? 1.0 / (1.0 - p) : 1.0;
    const Tensor& mask = ctx.outputs[1].tensor();
    Tensor ga = s.call_t(MYST_OP("aten::native_dropout_backward"),
                         {IValue(gouts[0]), IValue(mask), IValue(scale)});
    return {ga, Tensor(), Tensor()};
}

std::vector<IValue>
dropout_bwd_fn(Session& s, const std::vector<IValue>& in)
{
    const Tensor& g = in[0].tensor();
    const Tensor& mask = in[1].tensor();
    const float scale = static_cast<float>(in[2].to_double());
    MYST_CHECK_MSG(g.numel() == mask.numel(), "dropout_bwd requires matching shapes");
    Tensor out = s.alloc(g.shape());
    if (s.numeric()) {
        for (int64_t i = 0; i < g.numel(); ++i)
            out.f32()[i] = g.f32()[i] * mask.f32()[i] * scale;
    }
    s.launch(pointwise_kernel("dropout_bwd", g.numel(), 2), dev::kComputeStream, {g, mask},
             {out});
    return {IValue(out)};
}

} // namespace

void
register_pointwise_ops(OpRegistry& reg)
{
    reg.register_op(
        {.name = "aten::add.Tensor",
         .schema = "aten::add.Tensor(Tensor self, Tensor other, *, Scalar alpha=1) -> Tensor",
         .fn = pointwise_fn<FusedKernel::kAdd>,
         .backward = add_backward,
         .grad_name = "Add"});
    reg.register_op(
        {.name = "aten::add_.Tensor",
         .schema =
             "aten::add_.Tensor(Tensor(a!) self, Tensor other, *, Scalar alpha=1) -> Tensor(a!)",
         .fn = add_inplace_fn});
    reg.register_op(
        {.name = "aten::sub.Tensor",
         .schema = "aten::sub.Tensor(Tensor self, Tensor other, *, Scalar alpha=1) -> Tensor",
         .fn = pointwise_fn<FusedKernel::kSub>,
         .backward = sub_backward,
         .grad_name = "Sub"});
    reg.register_op({.name = "aten::mul.Tensor",
                     .schema = "aten::mul.Tensor(Tensor self, Tensor other) -> Tensor",
                     .fn = pointwise_fn<FusedKernel::kMul>,
                     .backward = mul_backward,
                     .grad_name = "Mul"});
    reg.register_op({.name = "aten::mul.Scalar",
                     .schema = "aten::mul.Scalar(Tensor self, Scalar other) -> Tensor",
                     .fn = pointwise_fn<FusedKernel::kMulScalar>,
                     .backward = mul_scalar_backward,
                     .grad_name = "MulScalar"});
    reg.register_op({.name = "aten::div.Tensor",
                     .schema = "aten::div.Tensor(Tensor self, Tensor other) -> Tensor",
                     .fn = pointwise_fn<FusedKernel::kDiv>});

    reg.register_op({.name = "aten::relu",
                     .schema = "aten::relu(Tensor self) -> Tensor",
                     .fn = pointwise_fn<FusedKernel::kRelu>,
                     .backward =
                         [](Session& s, const AutogradContext& ctx,
                            const std::vector<Tensor>& gouts) -> std::vector<Tensor> {
                         Tensor ga = s.call_t(MYST_OP("aten::threshold_backward"),
                                              {IValue(gouts[0]),
                                               IValue(ctx.inputs[0].tensor()), IValue(0.0)});
                         return {ga};
                     },
                     .grad_name = "Relu"});
    reg.register_op(
        {.name = "aten::threshold_backward",
         .schema =
             "aten::threshold_backward(Tensor grad_output, Tensor self, Scalar threshold) -> Tensor",
         .fn = pointwise_fn<FusedKernel::kReluBwd>});

    reg.register_op({.name = "aten::sigmoid",
                     .schema = "aten::sigmoid(Tensor self) -> Tensor",
                     .fn = pointwise_fn<FusedKernel::kSigmoid>,
                     .backward =
                         [](Session& s, const AutogradContext& ctx,
                            const std::vector<Tensor>& gouts) -> std::vector<Tensor> {
                         Tensor ga = s.call_t(MYST_OP("aten::sigmoid_backward"),
                                              {IValue(gouts[0]),
                                               IValue(ctx.outputs[0].tensor())});
                         return {ga};
                     },
                     .grad_name = "Sigmoid"});
    reg.register_op(
        {.name = "aten::sigmoid_backward",
         .schema = "aten::sigmoid_backward(Tensor grad_output, Tensor output) -> Tensor",
         .fn = pointwise_fn<FusedKernel::kSigmoidBwd>});

    reg.register_op({.name = "aten::tanh",
                     .schema = "aten::tanh(Tensor self) -> Tensor",
                     .fn = pointwise_fn<FusedKernel::kTanh>,
                     .backward =
                         [](Session& s, const AutogradContext& ctx,
                            const std::vector<Tensor>& gouts) -> std::vector<Tensor> {
                         Tensor ga = s.call_t(MYST_OP("aten::tanh_backward"),
                                              {IValue(gouts[0]),
                                               IValue(ctx.outputs[0].tensor())});
                         return {ga};
                     },
                     .grad_name = "Tanh"});
    reg.register_op(
        {.name = "aten::tanh_backward",
         .schema = "aten::tanh_backward(Tensor grad_output, Tensor output) -> Tensor",
         .fn = pointwise_fn<FusedKernel::kTanhBwd>});

    reg.register_op({.name = "aten::exp",
                     .schema = "aten::exp(Tensor self) -> Tensor",
                     .fn = pointwise_fn<FusedKernel::kExp>});

    reg.register_op({.name = "aten::gelu",
                     .schema = "aten::gelu(Tensor self) -> Tensor",
                     .fn = pointwise_fn<FusedKernel::kGelu>,
                     .backward =
                         [](Session& s, const AutogradContext& ctx,
                            const std::vector<Tensor>& gouts) -> std::vector<Tensor> {
                         Tensor ga = s.call_t(MYST_OP("aten::gelu_backward"),
                                              {IValue(gouts[0]),
                                               IValue(ctx.inputs[0].tensor())});
                         return {ga};
                     },
                     .grad_name = "Gelu"});
    reg.register_op(
        {.name = "aten::gelu_backward",
         .schema = "aten::gelu_backward(Tensor grad_output, Tensor self) -> Tensor",
         .fn = pointwise_fn<FusedKernel::kGeluBwd>});

    reg.register_op(
        {.name = "aten::layer_norm",
         .schema = "aten::layer_norm(Tensor input, Tensor? weight, Tensor? bias, "
                   "float eps) -> Tensor",
         .fn =
             [](Session& s, const std::vector<IValue>& in) -> std::vector<IValue> {
             const Tensor& a = in[0].tensor();
             const Tensor gamma = in[1].is_tensor() ? in[1].tensor() : Tensor();
             const Tensor beta = in[2].is_tensor() ? in[2].tensor() : Tensor();
             const float eps = static_cast<float>(in[3].to_double());
             const int64_t cols = a.shape().back();
             Tensor out = s.alloc(a.shape());
             if (s.numeric())
                 math::layer_norm(a.f32(), gamma.defined() ? gamma.f32() : nullptr,
                                  beta.defined() ? beta.f32() : nullptr, out.f32(),
                                  a.numel() / cols, cols, eps);
             s.launch(norm_kernel("layer_norm", a.numel()), dev::kComputeStream,
                      {a, gamma, beta}, {out});
             return {IValue(out)};
         },
         .backward =
             [](Session& s, const AutogradContext& ctx,
                const std::vector<Tensor>& gouts) -> std::vector<Tensor> {
             auto outs = s.call(MYST_OP("aten::native_layer_norm_backward"),
                                {IValue(gouts[0]), ctx.inputs[0], ctx.inputs[1],
                                 ctx.inputs[3]});
             Tensor ggamma, gbeta;
             if (ctx.inputs[1].is_tensor() && ctx.inputs[1].tensor().requires_grad())
                 ggamma = outs[1].tensor();
             if (ctx.inputs[2].is_tensor() && ctx.inputs[2].tensor().requires_grad())
                 gbeta = outs[2].tensor();
             return {outs[0].tensor(), ggamma, gbeta, Tensor()};
         },
         .grad_name = "NativeLayerNorm"});
    reg.register_op(
        {.name = "aten::native_layer_norm_backward",
         .schema = "aten::native_layer_norm_backward(Tensor grad_out, Tensor input, "
                   "Tensor? weight, float eps) -> (Tensor, Tensor, Tensor)",
         .fn = [](Session& s, const std::vector<IValue>& in) -> std::vector<IValue> {
             const Tensor& grad_out = in[0].tensor();
             const Tensor& a = in[1].tensor();
             const Tensor gamma = in[2].is_tensor() ? in[2].tensor() : Tensor();
             const float eps = static_cast<float>(in[3].to_double());
             const int64_t cols = a.shape().back();
             Tensor grad_in = s.alloc(a.shape());
             Tensor grad_gamma = s.alloc({cols});
             Tensor grad_beta = s.alloc({cols});
             if (s.numeric())
                 math::layer_norm_backward(grad_out.f32(), a.f32(),
                                           gamma.defined() ? gamma.f32() : nullptr,
                                           grad_in.f32(), grad_gamma.f32(),
                                           grad_beta.f32(), a.numel() / cols, cols, eps);
             s.launch(norm_kernel("layer_norm_bwd", a.numel()), dev::kComputeStream,
                      {grad_out, a, gamma}, {grad_in, grad_gamma, grad_beta});
             return {IValue(grad_in), IValue(grad_gamma), IValue(grad_beta)};
         }});

    reg.register_op(
        {.name = "aten::native_dropout",
         .schema = "aten::native_dropout(Tensor input, float p, bool train) -> (Tensor, Tensor)",
         .fn = dropout_fn,
         .backward = dropout_backward,
         .grad_name = "NativeDropout"});
    reg.register_op(
        {.name = "aten::native_dropout_backward",
         .schema =
             "aten::native_dropout_backward(Tensor grad_output, Tensor mask, float scale) -> Tensor",
         .fn = dropout_bwd_fn});
}

} // namespace mystique::fw
