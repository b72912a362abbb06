/// Parameterized sweep: every registered differentiable ATen op is invoked
/// through a minimal workload and its ET record must (a) carry a schema that
/// parses back to the registry key, and (b) have argument counts matching
/// that schema — the invariants the replayer's reconstruction depends on.

#include <gtest/gtest.h>

#include "et/trace.h"
#include "framework/functional.h"
#include "framework/math.h"
#include "framework/session.h"
#include "jit/schema.h"

namespace mystique::fw {
namespace {

SessionOptions
tiny_opts()
{
    SessionOptions o;
    o.mode = ExecMode::kNumeric;
    o.seed = 5;
    return o;
}

Tensor
dev_tensor(Session& s, Shape shape)
{
    Tensor t = s.alloc(std::move(shape));
    math::randn(t.f32(), t.numel(), s.rng(), 0.5f);
    return t;
}

Tensor
dev_indices(Session& s, int64_t n, int64_t upper)
{
    Tensor t = s.alloc({n}, DType::kInt64);
    for (int64_t i = 0; i < n; ++i)
        t.i64()[i] = s.rng().uniform_int(0, upper - 1);
    return t;
}

Tensor
dev_offsets(Session& s, int64_t bags, int64_t nnz)
{
    Tensor t = s.alloc({bags}, DType::kInt64);
    for (int64_t i = 0; i < bags; ++i)
        t.i64()[i] = i * nnz / bags;
    return t;
}

/// A named op exercise: invokes one op family with valid arguments.
struct OpExercise {
    const char* label;
    void (*run)(Session& s);
};

void run_add(Session& s)
{
    F::add(s, dev_tensor(s, {8}), dev_tensor(s, {8}));
}
void run_sub(Session& s)
{
    s.call("aten::sub.Tensor",
           {IValue(dev_tensor(s, {8})), IValue(dev_tensor(s, {8})), IValue(1.0)});
}
void run_mul(Session& s)
{
    F::mul(s, dev_tensor(s, {8}), dev_tensor(s, {8}));
}
void run_mul_scalar(Session& s)
{
    s.call("aten::mul.Scalar", {IValue(dev_tensor(s, {8})), IValue(0.5)});
}
void run_div(Session& s)
{
    s.call("aten::div.Tensor", {IValue(dev_tensor(s, {8})), IValue(dev_tensor(s, {8}))});
}
void run_relu(Session& s)
{
    F::relu(s, dev_tensor(s, {8}));
}
void run_sigmoid(Session& s)
{
    F::sigmoid(s, dev_tensor(s, {8}));
}
void run_tanh(Session& s)
{
    F::tanh(s, dev_tensor(s, {8}));
}
void run_exp(Session& s)
{
    s.call("aten::exp", {IValue(dev_tensor(s, {8}))});
}
void run_dropout(Session& s)
{
    F::dropout(s, dev_tensor(s, {8}), 0.5);
}
void run_mm(Session& s)
{
    F::mm(s, dev_tensor(s, {2, 3}), dev_tensor(s, {3, 4}));
}
void run_addmm(Session& s)
{
    s.call("aten::addmm",
           {IValue(dev_tensor(s, {4})), IValue(dev_tensor(s, {2, 3})),
            IValue(dev_tensor(s, {3, 4})), IValue(1.0), IValue(1.0)});
}
void run_bmm(Session& s)
{
    F::bmm(s, dev_tensor(s, {2, 3, 4}), dev_tensor(s, {2, 4, 5}));
}
void run_linear(Session& s)
{
    F::linear(s, dev_tensor(s, {2, 3}), dev_tensor(s, {4, 3}), dev_tensor(s, {4}));
}
void run_t(Session& s)
{
    s.call("aten::t", {IValue(dev_tensor(s, {2, 3}))});
}
void run_transpose(Session& s)
{
    F::transpose(s, dev_tensor(s, {2, 3, 4}), 1, 2);
}
void run_reshape(Session& s)
{
    F::reshape(s, dev_tensor(s, {2, 6}), {3, 4});
}
void run_cat(Session& s)
{
    F::cat(s, {dev_tensor(s, {2, 2}), dev_tensor(s, {2, 3})}, 1);
}
void run_narrow(Session& s)
{
    s.call("aten::narrow",
           {IValue(dev_tensor(s, {4, 6})), IValue(1), IValue(2), IValue(3)});
}
void run_sum(Session& s)
{
    s.call("aten::sum", {IValue(dev_tensor(s, {8}))});
}
void run_sum_dim(Session& s)
{
    s.call("aten::sum.dim_IntList",
           {IValue(dev_tensor(s, {4, 6})), IValue(std::vector<int64_t>{0}), IValue(false)});
}
void run_mean(Session& s)
{
    s.call("aten::mean", {IValue(dev_tensor(s, {8}))});
}
void run_conv2d(Session& s)
{
    F::conv2d(s, dev_tensor(s, {1, 2, 6, 6}), dev_tensor(s, {3, 2, 3, 3}),
              dev_tensor(s, {3}), 1, 1);
}
void run_batch_norm(Session& s)
{
    F::batch_norm(s, dev_tensor(s, {2, 3, 4, 4}), dev_tensor(s, {3}), dev_tensor(s, {3}));
}
void run_max_pool(Session& s)
{
    F::max_pool2d(s, dev_tensor(s, {1, 2, 6, 6}), 2, 2);
}
void run_avg_pool(Session& s)
{
    F::adaptive_avg_pool2d(s, dev_tensor(s, {1, 2, 6, 6}), 1, 1);
}
void run_softmax(Session& s)
{
    s.call("aten::softmax.int", {IValue(dev_tensor(s, {4, 6})), IValue(1)});
}
void run_log_softmax(Session& s)
{
    F::log_softmax(s, dev_tensor(s, {4, 6}), 1);
}
void run_nll(Session& s)
{
    F::nll_loss(s, F::log_softmax(s, dev_tensor(s, {4, 6}), 1), dev_indices(s, 4, 6));
}
void run_bce(Session& s)
{
    Tensor target = s.alloc({4, 1});
    for (int i = 0; i < 4; ++i)
        target.f32()[i] = static_cast<float>(s.rng().uniform());
    F::bce_with_logits(s, dev_tensor(s, {4, 1}), target);
}
void run_embedding_bag(Session& s)
{
    F::embedding_bag(s, dev_tensor(s, {20, 4}), dev_indices(s, 16, 20),
                     dev_offsets(s, 4, 16));
}
void run_lstm(Session& s)
{
    s.call("fairseq::lstm_layer",
           {IValue(dev_tensor(s, {3, 2, 4})), IValue(dev_tensor(s, {8, 4})),
            IValue(dev_tensor(s, {8, 2})), IValue(dev_tensor(s, {8}))});
}
void run_fbgemm(Session& s)
{
    s.call("fbgemm::batched_embedding_lookup",
           {IValue(dev_tensor(s, {40, 4})), IValue(dev_indices(s, 16, 40)),
            IValue(dev_offsets(s, 8, 16)), IValue(2)});
}
void run_interaction(Session& s)
{
    s.call("meta::interaction_arch",
           {IValue(dev_tensor(s, {2, 4})),
            IValue(std::vector<Tensor>{dev_tensor(s, {2, 4}), dev_tensor(s, {2, 4})})});
}
void run_jagged(Session& s)
{
    s.call("torchrec::jagged_to_padded_dense",
           {IValue(dev_tensor(s, {10})), IValue(dev_offsets(s, 4, 10)), IValue(3)});
}
void run_to_device(Session& s)
{
    Tensor host = Tensor::create({16}, DType::kFloat32, true);
    host.impl()->device = "cpu";
    F::to_device(s, host);
}
void run_ones_like(Session& s)
{
    s.call("aten::ones_like", {IValue(dev_tensor(s, {8}))});
}
void run_zeros(Session& s)
{
    s.call("aten::zeros", {IValue(std::vector<int64_t>{4, 4})});
}
void run_randn(Session& s)
{
    s.call("aten::randn", {IValue(std::vector<int64_t>{4, 4})});
}

const OpExercise kExercises[] = {
    {"add", run_add},           {"sub", run_sub},
    {"mul", run_mul},           {"mul_scalar", run_mul_scalar},
    {"div", run_div},           {"relu", run_relu},
    {"sigmoid", run_sigmoid},   {"tanh", run_tanh},
    {"exp", run_exp},           {"dropout", run_dropout},
    {"mm", run_mm},             {"addmm", run_addmm},
    {"bmm", run_bmm},           {"linear", run_linear},
    {"t", run_t},               {"transpose", run_transpose},
    {"reshape", run_reshape},   {"cat", run_cat},
    {"narrow", run_narrow},     {"sum", run_sum},
    {"sum_dim", run_sum_dim},   {"mean", run_mean},
    {"conv2d", run_conv2d},     {"batch_norm", run_batch_norm},
    {"max_pool", run_max_pool}, {"avg_pool", run_avg_pool},
    {"softmax", run_softmax},   {"log_softmax", run_log_softmax},
    {"nll", run_nll},           {"bce", run_bce},
    {"embedding_bag", run_embedding_bag},
    {"lstm", run_lstm},         {"fbgemm", run_fbgemm},
    {"interaction", run_interaction},
    {"jagged", run_jagged},     {"to_device", run_to_device},
    {"ones_like", run_ones_like},
    {"zeros", run_zeros},       {"randn", run_randn},
};

class OpDispatchTest : public ::testing::TestWithParam<OpExercise> {};

TEST_P(OpDispatchTest, RecordsReplayableNodes)
{
    Session s(tiny_opts());
    et::ExecutionTraceObserver obs;
    s.attach_et_observer(&obs);
    obs.start();
    GetParam().run(s);
    obs.stop();
    ASSERT_GT(obs.trace().size(), 0u);
    for (const auto& node : obs.trace().nodes()) {
        if (!node.is_op())
            continue;
        ASSERT_FALSE(node.op_schema.empty()) << node.name;
        const jit::FunctionSchema fs = jit::parse_schema(node.op_schema);
        EXPECT_EQ(fs.qualified_name(), node.name);
        // Recorded argument count matches the schema (reconstruction
        // precondition).
        EXPECT_EQ(fs.args.size(), node.inputs.size()) << node.name;
        // Output metadata exists for tensor-producing ops.
        EXPECT_EQ(fs.returns.empty(), node.outputs.empty()) << node.name;
    }
}

TEST_P(OpDispatchTest, AdvancesVirtualTime)
{
    Session s(tiny_opts());
    const double before = s.cpu_now();
    GetParam().run(s);
    EXPECT_GT(s.cpu_now(), before);
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpDispatchTest, ::testing::ValuesIn(kExercises),
                         [](const ::testing::TestParamInfo<OpExercise>& info) {
                             return std::string(info.param.label);
                         });

TEST(PointwiseOperands, ShortSecondOperandIsRejected)
{
    // These ops read their second tensor at every index of the first; a
    // shorter one must throw, never be read past its end.
    struct Case {
        const char* op;
        bool trailing_scalar;
    };
    for (const Case c : {Case{"aten::threshold_backward", true},
                         Case{"aten::sigmoid_backward", false},
                         Case{"aten::tanh_backward", false},
                         Case{"aten::gelu_backward", false},
                         Case{"aten::native_dropout_backward", true}}) {
        Session s(tiny_opts());
        std::vector<IValue> args{IValue(dev_tensor(s, {64})), IValue(dev_tensor(s, {1}))};
        if (c.trailing_scalar)
            args.emplace_back(1.0);
        EXPECT_ANY_THROW(s.call(c.op, std::move(args))) << c.op;
    }
}

} // namespace
} // namespace mystique::fw
