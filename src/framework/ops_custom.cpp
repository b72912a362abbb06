/// @file
/// Custom extension operators (§4.3.3): the out-of-source library ops the
/// paper's production workloads rely on.  The *framework* always knows how to
/// execute them (production code links the libraries); the Mystique
/// *replayer*, by contrast, can only replay the ones registered through its
/// custom-op interface — which is exactly the coverage gap in Table 3.
///
///  - fairseq::lstm_layer          — the ASR acoustic model's LSTM block
///  - fbgemm::batched_embedding_lookup — RM's fused multi-table lookup
///  - torchrec::jagged_to_padded_dense — RM's sparse-feature preprocessing

#include <cstring>

#include "common/error.h"
#include "framework/embedding_common.h"
#include "framework/kernel_utils.h"
#include "framework/math.h"
#include "framework/op_registry.h"
#include "framework/session.h"

namespace mystique::fw {

namespace {

std::vector<IValue>
lstm_layer_fn(Session& s, const std::vector<IValue>& in)
{
    const Tensor& input = in[0].tensor();
    const Tensor& w_ih = in[1].tensor();
    const Tensor& w_hh = in[2].tensor();
    const Tensor& bias = in[3].tensor();
    MYST_CHECK_MSG(input.shape().size() == 3, "lstm_layer expects [T,B,I]");
    const int64_t t = input.dim(0), b = input.dim(1), i = input.dim(2);
    const int64_t h = w_hh.dim(1);
    MYST_CHECK_MSG(w_ih.dim(0) == 4 * h && w_ih.dim(1) == i, "lstm w_ih shape");

    Tensor out = s.alloc({t, b, h});
    if (s.numeric())
        math::lstm_layer(input.f32(), w_ih.f32(), w_hh.f32(), bias.f32(), out.f32(), t, b,
                         i, h);
    s.launch(lstm_kernel("fprop", t, b, i, h), dev::kComputeStream,
             {input, w_ih, w_hh, bias}, {out});
    return {IValue(out)};
}

std::vector<Tensor>
lstm_layer_backward_route(Session& s, const AutogradContext& ctx,
                          const std::vector<Tensor>& gouts)
{
    auto outs = s.call(MYST_OP("fairseq::lstm_layer_backward"),
                       {IValue(gouts[0]), ctx.inputs[0], ctx.inputs[1], ctx.inputs[2],
                        ctx.inputs[3]});
    return {outs[0].tensor(), outs[1].tensor(), outs[2].tensor(), outs[3].tensor()};
}

std::vector<IValue>
lstm_layer_backward_fn(Session& s, const std::vector<IValue>& in)
{
    const Tensor& grad_out = in[0].tensor();
    const Tensor& input = in[1].tensor();
    const Tensor& w_ih = in[2].tensor();
    const Tensor& w_hh = in[3].tensor();
    const Tensor& bias = in[4].tensor();
    const int64_t t = input.dim(0), b = input.dim(1), i = input.dim(2);
    const int64_t h = w_hh.dim(1);

    Tensor grad_in = s.alloc(input.shape());
    Tensor grad_w_ih = s.alloc(w_ih.shape());
    Tensor grad_w_hh = s.alloc(w_hh.shape());
    Tensor grad_bias = s.alloc(bias.shape());
    if (s.numeric())
        math::lstm_layer_backward(grad_out.f32(), input.f32(), w_ih.f32(), w_hh.f32(),
                                  bias.f32(), grad_in.f32(), grad_w_ih.f32(),
                                  grad_w_hh.f32(), grad_bias.f32(), t, b, i, h);
    // BPTT recomputes the forward pass (memory-efficient formulation):
    // ~3x the forward arithmetic.
    s.launch(lstm_kernel("bprop", t, b, i, h, 3.0), dev::kComputeStream,
             {grad_out, input, w_ih, w_hh}, {grad_in, grad_w_ih, grad_w_hh, grad_bias});
    return {IValue(grad_in), IValue(grad_w_ih), IValue(grad_w_hh), IValue(grad_bias)};
}

std::vector<IValue>
batched_embedding_fn(Session& s, const std::vector<IValue>& in)
{
    const Tensor& weights = in[0].tensor(); // [tables*rows, dim] stacked
    const Tensor& indices = in[1].tensor(); // all tables' indices, absolute rows
    const Tensor& offsets = in[2].tensor(); // [tables*batch] bag starts
    const int64_t num_tables = in[3].to_int();
    const int64_t dim = weights.dim(1);
    const int64_t bags = offsets.numel();
    MYST_CHECK_MSG(bags % num_tables == 0, "batched embedding offsets/tables mismatch");
    const int64_t batch = bags / num_tables;

    Tensor pooled = s.alloc({bags, dim});
    if (s.numeric())
        math::embedding_bag(weights.f32(), indices.i64(), offsets.i64(), pooled.f32(),
                            indices.numel(), bags, dim);
    Tensor out = pooled.view_as({batch, num_tables * dim});

    const int64_t uniq = unique_indices(indices);
    s.launch(embedding_kernel("fbgemm_batched_lookup", indices.numel(), dim, uniq,
                              embedding_locality(indices.numel(), uniq),
                              dev::OpCategory::kCustom),
             dev::kComputeStream, {weights, indices, offsets}, {out});
    return {IValue(out)};
}

std::vector<Tensor>
batched_embedding_backward_route(Session& s, const AutogradContext& ctx,
                                 const std::vector<Tensor>& gouts)
{
    const Tensor& weights = ctx.inputs[0].tensor();
    Tensor gw = s.call_t(MYST_OP("fbgemm::batched_embedding_backward"),
                         {IValue(gouts[0]), ctx.inputs[1], ctx.inputs[2],
                          IValue(weights.dim(0)), ctx.inputs[3]});
    return {gw, Tensor(), Tensor(), Tensor()};
}

std::vector<IValue>
batched_embedding_backward_fn(Session& s, const std::vector<IValue>& in)
{
    const Tensor& grad_out = in[0].tensor(); // [batch, tables*dim]
    const Tensor& indices = in[1].tensor();
    const Tensor& offsets = in[2].tensor();
    const int64_t rows = in[3].to_int();
    const int64_t num_tables = in[4].to_int();
    const int64_t bags = offsets.numel();
    const int64_t dim = grad_out.numel() / (bags / num_tables) / num_tables;

    Tensor grad_w = s.alloc({rows, dim});
    if (s.numeric()) {
        const Tensor flat = grad_out.view_as({bags, dim});
        math::embedding_bag_backward(flat.f32(), indices.i64(), offsets.i64(),
                                     grad_w.f32(), rows, indices.numel(), bags, dim);
    }
    const int64_t uniq = unique_indices(indices);
    s.launch(embedding_kernel("fbgemm_batched_bwd", indices.numel(), dim, uniq,
                              embedding_locality(indices.numel(), uniq),
                              dev::OpCategory::kCustom),
             dev::kComputeStream, {grad_out, indices, offsets}, {grad_w});
    return {IValue(grad_w)};
}

std::vector<IValue>
jagged_to_padded_fn(Session& s, const std::vector<IValue>& in)
{
    const Tensor& values = in[0].tensor();   // [nnz] float
    const Tensor& offsets = in[1].tensor();  // [B] segment starts
    const int64_t max_len = in[2].to_int();
    const int64_t b = offsets.numel();
    Tensor out = s.alloc({b, max_len});
    if (s.numeric()) {
        std::fill(out.f32(), out.f32() + out.numel(), 0.0f);
        const int64_t nnz = values.numel();
        for (int64_t row = 0; row < b; ++row) {
            const int64_t begin = offsets.i64()[row];
            const int64_t end = row + 1 < b ? offsets.i64()[row + 1] : nnz;
            const int64_t len = std::min<int64_t>(end - begin, max_len);
            if (len > 0)
                std::memcpy(out.f32() + row * max_len, values.f32() + begin,
                            static_cast<std::size_t>(len) * sizeof(float));
        }
    }
    dev::KernelDesc d = pointwise_kernel("jagged_to_padded", out.numel(), 2, 1.0,
                                         dev::OpCategory::kCustom);
    s.launch(std::move(d), dev::kComputeStream, {values, offsets}, {out});
    return {IValue(out)};
}

/// Production fused feature-interaction (the pairwise dot-product
/// "interaction arch" of DLRM, implemented as one custom kernel in the
/// production RM).  dense [B,d] + sparse list of [B,d] → [B, d + f*f] where
/// f = 1 + |sparse|: the dense features concatenated with the flattened
/// pairwise dot-product matrix.
std::vector<IValue>
interaction_arch_fn(Session& s, const std::vector<IValue>& in)
{
    const Tensor& dense = in[0].tensor();
    const std::vector<Tensor>& sparse = in[1].tensor_list();
    const int64_t b = dense.dim(0);
    const int64_t d = dense.dim(1);
    const int64_t f = static_cast<int64_t>(sparse.size()) + 1;
    Tensor out = s.alloc({b, d + f * f});
    if (s.numeric()) {
        auto feature = [&](int64_t row, int64_t idx) -> const float* {
            return idx == 0 ? dense.f32() + row * d
                            : sparse[static_cast<std::size_t>(idx - 1)].f32() + row * d;
        };
        for (int64_t row = 0; row < b; ++row) {
            float* orow = out.f32() + row * (d + f * f);
            std::memcpy(orow, dense.f32() + row * d,
                        static_cast<std::size_t>(d) * sizeof(float));
            for (int64_t a = 0; a < f; ++a) {
                for (int64_t c = 0; c < f; ++c) {
                    double acc = 0.0;
                    const float* za = feature(row, a);
                    const float* zc = feature(row, c);
                    for (int64_t k = 0; k < d; ++k)
                        acc += static_cast<double>(za[k]) * static_cast<double>(zc[k]);
                    orow[d + a * f + c] = static_cast<float>(acc);
                }
            }
        }
    }
    dev::KernelDesc kd = gemm_kernel(f, d, f, b, dev::OpCategory::kCustom);
    kd.name = strprintf("interaction_arch_b%lld_f%lld_d%lld", static_cast<long long>(b),
                        static_cast<long long>(f), static_cast<long long>(d));
    kd.kind = dev::KernelKind::kOther;
    std::vector<Tensor> inputs = sparse;
    inputs.push_back(dense);
    s.launch(std::move(kd), dev::kComputeStream, inputs, {out});
    return {IValue(out)};
}

std::vector<Tensor>
interaction_arch_backward_route(Session& s, const AutogradContext& ctx,
                                const std::vector<Tensor>& gouts)
{
    auto outs = s.call(MYST_OP("meta::interaction_arch_backward"),
                       {IValue(gouts[0]), ctx.inputs[0], ctx.inputs[1]});
    ctx.list_grads.assign(ctx.inputs.size(), {});
    ctx.list_grads[1] = outs[1].tensor_list();
    return {outs[0].tensor(), Tensor()};
}

std::vector<IValue>
interaction_arch_backward_fn(Session& s, const std::vector<IValue>& in)
{
    const Tensor& grad_out = in[0].tensor();
    const Tensor& dense = in[1].tensor();
    const std::vector<Tensor>& sparse = in[2].tensor_list();
    const int64_t b = dense.dim(0);
    const int64_t d = dense.dim(1);
    const int64_t f = static_cast<int64_t>(sparse.size()) + 1;

    Tensor grad_dense = s.alloc(dense.shape());
    std::vector<Tensor> grad_sparse;
    for (const auto& t : sparse)
        grad_sparse.push_back(s.alloc(t.shape()));

    if (s.numeric()) {
        auto feature = [&](int64_t row, int64_t idx) -> const float* {
            return idx == 0 ? dense.f32() + row * d
                            : sparse[static_cast<std::size_t>(idx - 1)].f32() + row * d;
        };
        auto grad_feature = [&](int64_t row, int64_t idx) -> float* {
            return idx == 0
                       ? grad_dense.f32() + row * d
                       : grad_sparse[static_cast<std::size_t>(idx - 1)].f32() + row * d;
        };
        for (int64_t row = 0; row < b; ++row) {
            const float* grow = grad_out.f32() + row * (d + f * f);
            // Direct contribution to the dense slice.
            std::memcpy(grad_dense.f32() + row * d, grow,
                        static_cast<std::size_t>(d) * sizeof(float));
            for (auto& gs : grad_sparse)
                std::fill(gs.f32() + row * d, gs.f32() + (row + 1) * d, 0.0f);
            // dZ_a += (G[a][c] + G[c][a]) * z_c
            for (int64_t a = 0; a < f; ++a) {
                float* ga = grad_feature(row, a);
                for (int64_t c = 0; c < f; ++c) {
                    const float g = grow[d + a * f + c] + grow[d + c * f + a];
                    const float* zc = feature(row, c);
                    for (int64_t k = 0; k < d; ++k)
                        ga[k] += g * zc[k];
                }
            }
        }
    }

    dev::KernelDesc kd = gemm_kernel(f, f, d, b, dev::OpCategory::kCustom);
    kd.name = strprintf("interaction_arch_bwd_b%lld_f%lld_d%lld", static_cast<long long>(b),
                        static_cast<long long>(f), static_cast<long long>(d));
    kd.kind = dev::KernelKind::kOther;
    kd.flops *= 2.0;
    std::vector<Tensor> inputs = sparse;
    inputs.push_back(grad_out);
    std::vector<Tensor> outputs = grad_sparse;
    outputs.push_back(grad_dense);
    s.launch(std::move(kd), dev::kComputeStream, inputs, outputs);
    return {IValue(grad_dense), IValue(std::move(grad_sparse))};
}

/// Performance-equivalent public proxy block (§8.4): stands in for an
/// IP-protected custom operator.  Executes one kernel with the recorded
/// flop/byte cost and produces outputs of the recorded shapes, preserving
/// data dependencies without revealing the original implementation.
std::vector<IValue>
obf_proxy_fn(Session& s, const std::vector<IValue>& in)
{
    const std::vector<Tensor>& inputs = in[0].tensor_list();
    const double flops = static_cast<double>(in[1].to_int());
    const double bytes = static_cast<double>(in[2].to_int());
    const auto& shape_enc = in[3].int_list();

    // Decode [rank, d0, d1, ..., rank, ...] into output shapes.
    std::vector<Tensor> outputs;
    std::size_t pos = 0;
    while (pos < shape_enc.size()) {
        const auto rank = static_cast<std::size_t>(shape_enc[pos++]);
        Shape shape;
        for (std::size_t i = 0; i < rank && pos < shape_enc.size(); ++i)
            shape.push_back(shape_enc[pos++]);
        outputs.push_back(s.alloc(shape.empty() ? Shape{1} : shape));
    }

    dev::KernelDesc d;
    d.name = strprintf("obf_proxy_f%lld_b%lld", static_cast<long long>(flops),
                       static_cast<long long>(bytes));
    d.kind = dev::KernelKind::kOther;
    d.category = dev::OpCategory::kCustom;
    d.flops = flops;
    d.bytes = bytes;
    d.working_set_bytes = bytes;
    d.locality = 0.7;
    d.parallelism = std::max(1.0, bytes / 16.0);
    s.launch(std::move(d), dev::kComputeStream, inputs, outputs);
    return {IValue(std::move(outputs))};
}

} // namespace

void
register_custom_ops(OpRegistry& reg)
{
    const auto cat = dev::OpCategory::kCustom;
    reg.register_op(
        {.name = "fairseq::lstm_layer",
         .schema = "fairseq::lstm_layer(Tensor input, Tensor w_ih, Tensor w_hh, "
                   "Tensor bias) -> Tensor",
         .category = cat,
         .fn = lstm_layer_fn,
         .backward = lstm_layer_backward_route,
         .grad_name = "FairseqLstmLayer",
         .extra_cpu_us = 3.0});
    reg.register_op(
        {.name = "fairseq::lstm_layer_backward",
         .schema = "fairseq::lstm_layer_backward(Tensor grad_output, Tensor input, "
                   "Tensor w_ih, Tensor w_hh, Tensor bias) -> (Tensor, Tensor, Tensor, Tensor)",
         .category = cat,
         .fn = lstm_layer_backward_fn,
         .extra_cpu_us = 3.0});
    reg.register_op(
        {.name = "fbgemm::batched_embedding_lookup",
         .schema = "fbgemm::batched_embedding_lookup(Tensor weights, Tensor indices, "
                   "Tensor offsets, int num_tables) -> Tensor",
         .category = cat,
         .fn = batched_embedding_fn,
         .backward = batched_embedding_backward_route,
         .grad_name = "FbgemmBatchedEmbedding",
         .extra_cpu_us = 2.0});
    reg.register_op(
        {.name = "fbgemm::batched_embedding_backward",
         .schema = "fbgemm::batched_embedding_backward(Tensor grad_output, Tensor indices, "
                   "Tensor offsets, int rows, int num_tables) -> Tensor",
         .category = cat,
         .fn = batched_embedding_backward_fn,
         .extra_cpu_us = 2.0});
    reg.register_op(
        {.name = "torchrec::jagged_to_padded_dense",
         .schema = "torchrec::jagged_to_padded_dense(Tensor values, Tensor offsets, "
                   "int max_len) -> Tensor",
         .category = cat,
         .fn = jagged_to_padded_fn});
    reg.register_op(
        {.name = "obf::proxy",
         .schema = "obf::proxy(Tensor[] inputs, int flops, int bytes, "
                   "int[] out_shapes) -> Tensor[]",
         .category = cat,
         .fn = obf_proxy_fn});
    reg.register_op(
        {.name = "meta::interaction_arch",
         .schema = "meta::interaction_arch(Tensor dense, Tensor[] sparse) -> Tensor",
         .category = cat,
         .fn = interaction_arch_fn,
         .backward = interaction_arch_backward_route,
         .grad_name = "InteractionArch",
         .extra_cpu_us = 2.0});
    reg.register_op(
        {.name = "meta::interaction_arch_backward",
         .schema = "meta::interaction_arch_backward(Tensor grad_output, Tensor dense, "
                   "Tensor[] sparse) -> (Tensor, Tensor[])",
         .category = cat,
         .fn = interaction_arch_backward_fn,
         .extra_cpu_us = 2.0});
}

} // namespace mystique::fw
