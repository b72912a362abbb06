#include "framework/fused.h"

#include "common/error.h"
#include "framework/kernel_utils.h"
#include "framework/math.h"

namespace mystique::fw {

namespace {

dev::KernelDesc
fused_kernel(const std::string& label, int64_t numel, int n_inputs, double flops_per_elem)
{
    dev::KernelDesc d = pointwise_kernel(label, numel, n_inputs, flops_per_elem,
                                         dev::OpCategory::kFused);
    d.kind = dev::KernelKind::kFusedPointwise;
    d.name = "nvfuser_" + d.name;
    return d;
}

} // namespace

Tensor
fused_mul_add_relu(Session& s, const Tensor& a, const Tensor& b, const Tensor& c)
{
    MYST_CHECK_MSG(a.numel() == b.numel() && a.numel() == c.numel(),
                   "fused_mul_add_relu requires matching shapes");
    OpDef def;
    def.name = "fused::mul_add_relu";
    def.schema = ""; // fused ops carry no schema in the ET (§4.3.4)
    def.category = dev::OpCategory::kFused;
    def.grad_name = "FusedMulAddRelu";
    def.fn = [](Session& sess, const std::vector<IValue>& in) -> std::vector<IValue> {
        const Tensor& x = in[0].tensor();
        const Tensor& y = in[1].tensor();
        const Tensor& z = in[2].tensor();
        Tensor out = sess.alloc(x.shape());
        if (sess.numeric()) {
            for (int64_t i = 0; i < x.numel(); ++i) {
                const float v = x.f32()[i] * y.f32()[i] + z.f32()[i];
                out.f32()[i] = v > 0.0f ? v : 0.0f;
            }
        }
        sess.launch(fused_kernel("mul_add_relu", x.numel(), 3, 3.0), dev::kComputeStream,
                    {x, y, z}, {out});
        return {IValue(out)};
    };
    def.backward = [](Session& sess, const AutogradContext& ctx,
                      const std::vector<Tensor>& gouts) -> std::vector<Tensor> {
        // JIT autodiff decomposes the fused forward into ATen backward ops.
        const Tensor& x = ctx.inputs[0].tensor();
        const Tensor& y = ctx.inputs[1].tensor();
        const Tensor& out = ctx.outputs[0].tensor();
        Tensor gz = sess.call_t(MYST_OP("aten::threshold_backward"),
                                {IValue(gouts[0]), IValue(out), IValue(0.0)});
        Tensor ga, gb;
        if (x.requires_grad())
            ga = sess.call_t(MYST_OP("aten::mul.Tensor"), {IValue(gz), IValue(y)});
        if (y.requires_grad())
            gb = sess.call_t(MYST_OP("aten::mul.Tensor"), {IValue(gz), IValue(x)});
        return {ga, gb, gz};
    };
    return s.call_dynamic(def, {IValue(a), IValue(b), IValue(c)})[0].tensor();
}

} // namespace mystique::fw
