/// @file
/// Embedding-bag operators (simplified single-output schema; the real ATen op
/// returns auxiliary offset tensors we do not need).

#include "common/error.h"
#include "framework/embedding_common.h"
#include "framework/kernel_utils.h"
#include "framework/math.h"
#include "framework/op_registry.h"
#include "framework/session.h"

namespace mystique::fw {

namespace {

std::vector<IValue>
embedding_bag_fn(Session& s, const std::vector<IValue>& in)
{
    const Tensor& weight = in[0].tensor();
    const Tensor& indices = in[1].tensor();
    const Tensor& offsets = in[2].tensor();
    MYST_CHECK_MSG(weight.shape().size() == 2, "embedding_bag weight must be 2D");
    const int64_t dim = weight.dim(1);
    const int64_t nnz = indices.numel();
    const int64_t bags = offsets.numel();

    Tensor out = s.alloc({bags, dim});
    if (s.numeric())
        math::embedding_bag(weight.f32(), indices.i64(), offsets.i64(), out.f32(), nnz,
                            bags, dim);

    const int64_t uniq = unique_indices(indices);
    s.launch(embedding_kernel("embedding_bag", nnz, dim, uniq, embedding_locality(nnz, uniq)),
             dev::kComputeStream, {weight, indices, offsets}, {out});
    return {IValue(out)};
}

std::vector<Tensor>
embedding_bag_backward_route(Session& s, const AutogradContext& ctx,
                             const std::vector<Tensor>& gouts)
{
    const Tensor& weight = ctx.inputs[0].tensor();
    Tensor gw = s.call_t(MYST_OP("aten::_embedding_bag_dense_backward"),
                         {IValue(gouts[0]), ctx.inputs[1], ctx.inputs[2],
                          IValue(weight.dim(0))});
    return {gw, Tensor(), Tensor(), Tensor()};
}

std::vector<IValue>
embedding_bag_backward_fn(Session& s, const std::vector<IValue>& in)
{
    const Tensor& grad_out = in[0].tensor();
    const Tensor& indices = in[1].tensor();
    const Tensor& offsets = in[2].tensor();
    const int64_t num_weights = in[3].to_int();
    const int64_t dim = grad_out.dim(1);
    const int64_t nnz = indices.numel();
    const int64_t bags = offsets.numel();

    Tensor grad_w = s.alloc({num_weights, dim});
    if (s.numeric())
        math::embedding_bag_backward(grad_out.f32(), indices.i64(), offsets.i64(),
                                     grad_w.f32(), num_weights, nnz, bags, dim);

    const int64_t uniq = unique_indices(indices);
    s.launch(embedding_kernel("embedding_bag_bwd", nnz, dim, uniq, embedding_locality(nnz, uniq)),
             dev::kComputeStream, {grad_out, indices, offsets}, {grad_w});
    return {IValue(grad_w)};
}

} // namespace

void
register_embedding_ops(OpRegistry& reg)
{
    reg.register_op(
        {.name = "aten::embedding_bag",
         .schema = "aten::embedding_bag(Tensor weight, Tensor indices, Tensor offsets, "
                   "int mode=0) -> Tensor",
         .fn = embedding_bag_fn,
         .backward = embedding_bag_backward_route,
         .grad_name = "EmbeddingBag"});
    reg.register_op(
        {.name = "aten::_embedding_bag_dense_backward",
         .schema = "aten::_embedding_bag_dense_backward(Tensor grad_output, Tensor indices, "
                   "Tensor offsets, int num_weights) -> Tensor",
         .fn = embedding_bag_backward_fn});
}

} // namespace mystique::fw
