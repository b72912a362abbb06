/// Tests for tensor classification and generation policies (§4.4).

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <utility>

#include "core/tensor_manager.h"
#include "framework/op_registry.h"

namespace mystique::core {
namespace {

et::TensorMeta
meta(int64_t uid, std::vector<int64_t> shape, const char* dtype = "float32")
{
    et::TensorMeta m;
    m.tensor_id = uid;
    m.storage_id = uid + 500;
    m.numel = fw::shape_numel(shape);
    m.itemsize = std::string(dtype) == "int64" ? 8 : 4;
    m.shape = std::move(shape);
    m.dtype = dtype;
    return m;
}

et::Node
make_node(int64_t id, std::string name)
{
    et::Node n;
    n.id = id;
    n.name = std::move(name);
    n.kind = et::NodeKind::kOperator;
    return n;
}

fw::Session&
session()
{
    static fw::SessionOptions opts = [] {
        fw::SessionOptions o;
        o.mode = fw::ExecMode::kShapeOnly;
        return o;
    }();
    static fw::Session s(opts);
    return s;
}

TEST(TensorManager, ClassifiesExternalsAndIntermediates)
{
    // op0: relu(t1) -> t2 ; op1: relu(t2) -> t3.  t1 external; t2, t3
    // intermediates.
    et::Node n0 = make_node(0, "aten::relu");
    n0.inputs.push_back(et::Argument::from_tensor(meta(1, {4})));
    n0.outputs.push_back(et::Argument::from_tensor(meta(2, {4})));
    et::Node n1 = make_node(1, "aten::relu");
    n1.inputs.push_back(et::Argument::from_tensor(meta(2, {4})));
    n1.outputs.push_back(et::Argument::from_tensor(meta(3, {4})));

    TensorManager tm(session(), {});
    tm.analyze({&n0, &n1});
    EXPECT_EQ(tm.num_external(), 1u);
    EXPECT_EQ(tm.num_intermediate(), 2u);
}

TEST(TensorManager, ExternalsInstantiatedBeforeExecution)
{
    et::Node n0 = make_node(0, "aten::relu");
    n0.inputs.push_back(et::Argument::from_tensor(meta(1, {2, 3})));
    n0.outputs.push_back(et::Argument::from_tensor(meta(2, {2, 3})));
    TensorManager tm(session(), {});
    tm.analyze({&n0});
    tm.instantiate_externals();
    const fw::Tensor t = tm.resolve(meta(1, {2, 3}));
    EXPECT_EQ(t.shape(), (fw::Shape{2, 3}));
    // Intermediates are not pre-instantiated.
    EXPECT_THROW(tm.resolve(meta(2, {2, 3})), ReplayError);
}

TEST(TensorManager, BindOutputMakesIntermediateResolvable)
{
    et::Node n0 = make_node(0, "aten::relu");
    n0.inputs.push_back(et::Argument::from_tensor(meta(1, {4})));
    n0.outputs.push_back(et::Argument::from_tensor(meta(2, {4})));
    TensorManager tm(session(), {});
    tm.analyze({&n0});
    tm.instantiate_externals();
    fw::Tensor produced = session().alloc({4});
    tm.bind_output(meta(2, {4}), produced);
    EXPECT_EQ(tm.resolve(meta(2, {4})).impl(), produced.impl());
}

TEST(TensorManager, EmbeddingIndicesBoundedByTableRows)
{
    // embedding_bag(weight[100, 8], indices[64], offsets[16]) — indices must
    // land in [0, 100) and offsets must be monotone bag boundaries.
    et::Node n = make_node(0, "aten::embedding_bag");
    n.inputs.push_back(et::Argument::from_tensor(meta(1, {100, 8})));
    n.inputs.push_back(et::Argument::from_tensor(meta(2, {64}, "int64")));
    n.inputs.push_back(et::Argument::from_tensor(meta(3, {16}, "int64")));
    n.inputs.push_back(et::Argument::from_int(0));
    n.outputs.push_back(et::Argument::from_tensor(meta(4, {16, 8})));

    TensorManager tm(session(), {});
    tm.analyze({&n});
    tm.instantiate_externals();
    const fw::Tensor idx = tm.resolve(meta(2, {64}, "int64"));
    for (int64_t i = 0; i < idx.numel(); ++i) {
        EXPECT_GE(idx.i64()[i], 0);
        EXPECT_LT(idx.i64()[i], 100);
    }
    const fw::Tensor off = tm.resolve(meta(3, {16}, "int64"));
    EXPECT_EQ(off.i64()[0], 0);
    for (int64_t i = 1; i < off.numel(); ++i)
        EXPECT_GE(off.i64()[i], off.i64()[i - 1]);
    EXPECT_LE(off.i64()[off.numel() - 1], 64);
}

TEST(TensorManager, PolicyPropagatesThroughDeviceCopies)
{
    // host indices (external, uid 2) → to.device → device indices (uid 5)
    // → embedding_bag.  The generation policy must land on uid 2.
    et::Node copy = make_node(0, "aten::to.device");
    copy.inputs.push_back(et::Argument::from_tensor(meta(2, {64}, "int64")));
    copy.inputs.push_back(et::Argument::from_string("cuda:0"));
    copy.outputs.push_back(et::Argument::from_tensor(meta(5, {64}, "int64")));

    et::Node emb = make_node(1, "aten::embedding_bag");
    emb.inputs.push_back(et::Argument::from_tensor(meta(1, {50, 4})));
    emb.inputs.push_back(et::Argument::from_tensor(meta(5, {64}, "int64")));
    emb.inputs.push_back(et::Argument::from_tensor(meta(3, {8}, "int64")));
    emb.inputs.push_back(et::Argument::from_int(0));
    emb.outputs.push_back(et::Argument::from_tensor(meta(4, {8, 4})));

    TensorManager tm(session(), {});
    tm.analyze({&copy, &emb});
    tm.instantiate_externals();
    const fw::Tensor host_idx = tm.resolve(meta(2, {64}, "int64"));
    for (int64_t i = 0; i < host_idx.numel(); ++i)
        EXPECT_LT(host_idx.i64()[i], 50) << "policy did not propagate to host tensor";
}

TEST(TensorManager, NllTargetsBoundedByClasses)
{
    et::Node n = make_node(0, "aten::nll_loss");
    n.inputs.push_back(et::Argument::from_tensor(meta(1, {8, 10})));
    n.inputs.push_back(et::Argument::from_tensor(meta(2, {8}, "int64")));
    n.outputs.push_back(et::Argument::from_tensor(meta(3, {1})));
    TensorManager tm(session(), {});
    tm.analyze({&n});
    tm.instantiate_externals();
    const fw::Tensor target = tm.resolve(meta(2, {8}, "int64"));
    for (int64_t i = 0; i < 8; ++i) {
        EXPECT_GE(target.i64()[i], 0);
        EXPECT_LT(target.i64()[i], 10);
    }
}

TEST(TensorManager, ZipfConfigSkewsIndices)
{
    et::Node n = make_node(0, "aten::embedding_bag");
    n.inputs.push_back(et::Argument::from_tensor(meta(1, {10000, 4})));
    n.inputs.push_back(et::Argument::from_tensor(meta(2, {20000}, "int64")));
    n.inputs.push_back(et::Argument::from_tensor(meta(3, {16}, "int64")));
    n.inputs.push_back(et::Argument::from_int(0));
    n.outputs.push_back(et::Argument::from_tensor(meta(4, {16, 4})));

    EmbeddingGenConfig zipf;
    zipf.distribution = EmbeddingGenConfig::Distribution::kZipf;
    zipf.zipf_s = 1.3;
    TensorManager tm_z(session(), zipf);
    tm_z.analyze({&n});
    tm_z.instantiate_externals();
    EmbeddingGenConfig uni;
    uni.distribution = EmbeddingGenConfig::Distribution::kUniform;
    TensorManager tm_u(session(), uni);
    tm_u.analyze({&n});
    tm_u.instantiate_externals();

    auto head_mass = [](const fw::Tensor& idx) {
        int64_t head = 0;
        for (int64_t i = 0; i < idx.numel(); ++i)
            head += idx.i64()[i] < 100 ? 1 : 0;
        return static_cast<double>(head) / static_cast<double>(idx.numel());
    };
    const double zipf_head = head_mass(tm_z.resolve(meta(2, {20000}, "int64")));
    const double uni_head = head_mass(tm_u.resolve(meta(2, {20000}, "int64")));
    EXPECT_GT(zipf_head, uni_head * 5.0);
}

TEST(TensorManager, DigestSeesEveryWordAndTheTail)
{
    // A 5-word int64 tensor and a 7-float tensor (three words and a 4-byte
    // tail), bound as op outputs of a numeric session.
    fw::SessionOptions opts;
    opts.mode = fw::ExecMode::kNumeric;
    fw::Session numeric(opts);
    TensorManager tm(numeric, {});
    tm.analyze({});
    fw::Tensor idx = numeric.alloc({5}, fw::DType::kInt64);
    for (int64_t i = 0; i < idx.numel(); ++i)
        idx.i64()[i] = 1000 + i;
    fw::Tensor val = numeric.alloc({7});
    ASSERT_TRUE(val.materialized());
    for (int64_t i = 0; i < val.numel(); ++i)
        val.f32()[i] = 0.5f * static_cast<float>(i);
    tm.bind_output(meta(1, {5}, "int64"), idx);
    tm.bind_output(meta(2, {7}), val);
    const uint64_t base = tm.digest();

    auto* idx_bytes = reinterpret_cast<unsigned char*>(idx.i64());
    auto* val_bytes = reinterpret_cast<unsigned char*>(val.f32());
    const std::pair<const char*, unsigned char*> flips[] = {
        {"int64 first word", idx_bytes + 3},
        {"int64 middle word", idx_bytes + 16},
        {"float 4-byte tail", val_bytes + 26},
    };
    for (const auto& [where, byte] : flips) {
        *byte ^= 0x10;
        EXPECT_NE(tm.digest(), base) << where;
        *byte ^= 0x10;
        EXPECT_EQ(tm.digest(), base) << where;
    }

    // Two sign flips, each of which moves only bit 63 of its word, must not
    // cancel: float lanes 1 and 3 are the high halves of words 0 and 1 on a
    // little-endian host, and int64 elements 0 and 2 are whole words.
    val.f32()[1] = -val.f32()[1];
    val.f32()[3] = -val.f32()[3];
    EXPECT_NE(tm.digest(), base) << "two odd float lanes negated";
    val.f32()[1] = -val.f32()[1];
    val.f32()[3] = -val.f32()[3];
    constexpr int64_t kSignBit = std::numeric_limits<int64_t>::min();
    idx.i64()[0] ^= kSignBit;
    idx.i64()[2] ^= kSignBit;
    EXPECT_NE(tm.digest(), base) << "two int64 sign bits flipped";
    idx.i64()[0] ^= kSignBit;
    idx.i64()[2] ^= kSignBit;
    EXPECT_EQ(tm.digest(), base);

    // Rebinding an identical copy leaves the digest unchanged.
    fw::Tensor copy = numeric.alloc({7});
    std::memcpy(copy.f32(), val.f32(), static_cast<std::size_t>(val.nbytes()));
    tm.bind_output(meta(2, {7}), copy);
    EXPECT_EQ(tm.digest(), base);
}

TEST(TensorManager, UnknownTensorThrows)
{
    TensorManager tm(session(), {});
    tm.analyze({});
    EXPECT_THROW(tm.resolve(meta(99, {1})), ReplayError);
}

} // namespace
} // namespace mystique::core
