/// @file
/// Normalization and pooling operators.

#include "common/error.h"
#include "framework/kernel_utils.h"
#include "framework/math.h"
#include "framework/op_registry.h"
#include "framework/pointwise.h"
#include "framework/session.h"

namespace mystique::fw {

namespace {

std::vector<IValue>
batch_norm_fn(Session& s, const std::vector<IValue>& in)
{
    const Tensor& input = in[0].tensor();
    const Tensor gamma = in[1].is_tensor() ? in[1].tensor() : Tensor();
    const Tensor beta = in[2].is_tensor() ? in[2].tensor() : Tensor();
    const float eps = static_cast<float>(in[4].to_double());
    MYST_CHECK_MSG(input.shape().size() == 4, "batch_norm expects NCHW");
    const int64_t n = input.dim(0), c = input.dim(1);
    const int64_t spatial = input.dim(2) * input.dim(3);

    Tensor out = s.alloc(input.shape());
    if (s.numeric())
        math::batch_norm(input.f32(), gamma.defined() ? gamma.f32() : nullptr,
                         beta.defined() ? beta.f32() : nullptr, out.f32(), n, c, spatial,
                         eps);
    s.launch(pointwise_desc(pointwise_info(FusedKernel::kBatchNorm), input.numel()),
             dev::kComputeStream, {input, gamma, beta}, {out});
    return {IValue(out)};
}

std::vector<Tensor>
batch_norm_backward_route(Session& s, const AutogradContext& ctx,
                          const std::vector<Tensor>& gouts)
{
    auto outs = s.call(MYST_OP("aten::native_batch_norm_backward"),
                       {IValue(gouts[0]), ctx.inputs[0], ctx.inputs[1], ctx.inputs[4]});
    Tensor ggamma, gbeta;
    if (ctx.inputs[1].is_tensor() && ctx.inputs[1].tensor().requires_grad())
        ggamma = outs[1].tensor();
    if (ctx.inputs[2].is_tensor() && ctx.inputs[2].tensor().requires_grad())
        gbeta = outs[2].tensor();
    return {outs[0].tensor(), ggamma, gbeta, Tensor(), Tensor()};
}

std::vector<IValue>
batch_norm_backward_fn(Session& s, const std::vector<IValue>& in)
{
    const Tensor& grad_out = in[0].tensor();
    const Tensor& input = in[1].tensor();
    const Tensor gamma = in[2].is_tensor() ? in[2].tensor() : Tensor();
    const float eps = static_cast<float>(in[3].to_double());
    const int64_t n = input.dim(0), c = input.dim(1);
    const int64_t spatial = input.dim(2) * input.dim(3);

    Tensor grad_in = s.alloc(input.shape());
    Tensor grad_gamma = s.alloc({c});
    Tensor grad_beta = s.alloc({c});
    if (s.numeric())
        math::batch_norm_backward(grad_out.f32(), input.f32(),
                                  gamma.defined() ? gamma.f32() : nullptr, grad_in.f32(),
                                  grad_gamma.f32(), grad_beta.f32(), n, c, spatial, eps);
    s.launch(norm_kernel("batch_norm_bwd", input.numel()), dev::kComputeStream,
             {grad_out, input, gamma}, {grad_in, grad_gamma, grad_beta});
    return {IValue(grad_in), IValue(grad_gamma), IValue(grad_beta)};
}

std::vector<IValue>
max_pool2d_fn(Session& s, const std::vector<IValue>& in)
{
    const Tensor& input = in[0].tensor();
    const auto& kernel = in[1].int_list();
    const auto& stride = in[2].int_list();
    const auto& padding = in[3].int_list();
    const int64_t k = kernel.at(0);
    const int64_t st = stride.empty() ? k : stride[0];
    const int64_t pad = padding.empty() ? 0 : padding[0];
    const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
    const int64_t oh = (h + 2 * pad - k) / st + 1;
    const int64_t ow = (w + 2 * pad - k) / st + 1;

    Tensor out = s.alloc({n, c, oh, ow});
    if (s.numeric())
        math::max_pool2d(input.f32(), out.f32(), n, c, h, w, k, st, pad);
    s.launch(pool_kernel("max_pool2d", input.numel(), out.numel(), k), dev::kComputeStream,
             {input}, {out});
    return {IValue(out)};
}

std::vector<Tensor>
max_pool2d_backward_route(Session& s, const AutogradContext& ctx,
                          const std::vector<Tensor>& gouts)
{
    Tensor gi = s.call_t(MYST_OP("aten::max_pool2d_backward"),
                         {IValue(gouts[0]), ctx.inputs[0], ctx.inputs[1], ctx.inputs[2],
                          ctx.inputs[3]});
    return {gi, Tensor(), Tensor(), Tensor()};
}

std::vector<IValue>
max_pool2d_backward_fn(Session& s, const std::vector<IValue>& in)
{
    const Tensor& grad_out = in[0].tensor();
    const Tensor& input = in[1].tensor();
    const auto& kernel = in[2].int_list();
    const auto& stride = in[3].int_list();
    const auto& padding = in[4].int_list();
    const int64_t k = kernel.at(0);
    const int64_t st = stride.empty() ? k : stride[0];
    const int64_t pad = padding.empty() ? 0 : padding[0];
    const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);

    Tensor grad_in = s.alloc(input.shape());
    if (s.numeric())
        math::max_pool2d_backward(grad_out.f32(), input.f32(), grad_in.f32(), n, c, h, w,
                                  k, st, pad);
    s.launch(pool_kernel("max_pool2d_bwd", input.numel(), grad_out.numel(), k),
             dev::kComputeStream, {grad_out, input}, {grad_in});
    return {IValue(grad_in)};
}

std::vector<IValue>
adaptive_avg_pool2d_fn(Session& s, const std::vector<IValue>& in)
{
    const Tensor& input = in[0].tensor();
    const auto& osize = in[1].int_list();
    const int64_t oh = osize.at(0), ow = osize.at(1);
    const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
    Tensor out = s.alloc({n, c, oh, ow});
    if (s.numeric())
        math::adaptive_avg_pool2d(input.f32(), out.f32(), n, c, h, w, oh, ow);
    s.launch(pool_kernel("adaptive_avg_pool2d", input.numel(), out.numel(),
                         std::max<int64_t>(1, h / std::max<int64_t>(1, oh))),
             dev::kComputeStream, {input}, {out});
    return {IValue(out)};
}

std::vector<Tensor>
adaptive_avg_pool2d_backward_route(Session& s, const AutogradContext& ctx,
                                   const std::vector<Tensor>& gouts)
{
    Tensor gi = s.call_t(MYST_OP("aten::adaptive_avg_pool2d_backward"),
                         {IValue(gouts[0]), ctx.inputs[0]});
    return {gi, Tensor()};
}

std::vector<IValue>
adaptive_avg_pool2d_backward_fn(Session& s, const std::vector<IValue>& in)
{
    const Tensor& grad_out = in[0].tensor();
    const Tensor& input = in[1].tensor();
    const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
    const int64_t oh = grad_out.dim(2), ow = grad_out.dim(3);
    Tensor grad_in = s.alloc(input.shape());
    if (s.numeric())
        math::adaptive_avg_pool2d_backward(grad_out.f32(), grad_in.f32(), n, c, h, w, oh,
                                           ow);
    s.launch(pool_kernel("adaptive_avg_pool2d_bwd", input.numel(), grad_out.numel(), 2),
             dev::kComputeStream, {grad_out}, {grad_in});
    return {IValue(grad_in)};
}

} // namespace

void
register_norm_pool_ops(OpRegistry& reg)
{
    reg.register_op(
        {.name = "aten::batch_norm",
         .schema = "aten::batch_norm(Tensor input, Tensor? weight, Tensor? bias, "
                   "bool training, float eps) -> Tensor",
         .fn = batch_norm_fn,
         .backward = batch_norm_backward_route,
         .grad_name = "NativeBatchNorm"});
    reg.register_op(
        {.name = "aten::native_batch_norm_backward",
         .schema = "aten::native_batch_norm_backward(Tensor grad_out, Tensor input, "
                   "Tensor? weight, float eps) -> (Tensor, Tensor, Tensor)",
         .fn = batch_norm_backward_fn});
    reg.register_op(
        {.name = "aten::max_pool2d",
         .schema = "aten::max_pool2d(Tensor self, int[2] kernel_size, int[2] stride=[], "
                   "int[2] padding=0) -> Tensor",
         .fn = max_pool2d_fn,
         .backward = max_pool2d_backward_route,
         .grad_name = "MaxPool2D"});
    reg.register_op(
        {.name = "aten::max_pool2d_backward",
         .schema = "aten::max_pool2d_backward(Tensor grad_output, Tensor self, "
                   "int[2] kernel_size, int[2] stride=[], int[2] padding=0) -> Tensor",
         .fn = max_pool2d_backward_fn});
    reg.register_op(
        {.name = "aten::adaptive_avg_pool2d",
         .schema = "aten::adaptive_avg_pool2d(Tensor self, int[2] output_size) -> Tensor",
         .fn = adaptive_avg_pool2d_fn,
         .backward = adaptive_avg_pool2d_backward_route,
         .grad_name = "AdaptiveAvgPool2D"});
    reg.register_op(
        {.name = "aten::adaptive_avg_pool2d_backward",
         .schema =
             "aten::adaptive_avg_pool2d_backward(Tensor grad_output, Tensor self) -> Tensor",
         .fn = adaptive_avg_pool2d_backward_fn});
}

} // namespace mystique::fw
