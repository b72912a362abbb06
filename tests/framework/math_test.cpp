/// Numeric correctness of the math routines and of the pointwise table's
/// formulas, including finite-difference verification of every backward
/// implementation used by autograd.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "framework/functional.h"
#include "framework/math.h"
#include "framework/pointwise.h"
#include "framework/session.h"

namespace mystique::fw::math {
namespace {

std::vector<float>
random_vec(std::size_t n, uint64_t seed, float scale = 1.0f)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (auto& x : v)
        x = static_cast<float>(rng.normal()) * scale;
    return v;
}

TEST(Gemm, SmallKnown)
{
    // [1 2; 3 4] @ [5 6; 7 8] = [19 22; 43 50]
    const std::vector<float> a{1, 2, 3, 4};
    const std::vector<float> b{5, 6, 7, 8};
    std::vector<float> c(4, 0.0f);
    gemm(a.data(), b.data(), c.data(), 2, 2, 2);
    EXPECT_FLOAT_EQ(c[0], 19);
    EXPECT_FLOAT_EQ(c[1], 22);
    EXPECT_FLOAT_EQ(c[2], 43);
    EXPECT_FLOAT_EQ(c[3], 50);
}

TEST(Gemm, AlphaBeta)
{
    const std::vector<float> a{1, 0, 0, 1};
    const std::vector<float> b{2, 0, 0, 2};
    std::vector<float> c{10, 10, 10, 10};
    gemm(a.data(), b.data(), c.data(), 2, 2, 2, 0.5f, 1.0f);
    EXPECT_FLOAT_EQ(c[0], 11.0f); // 10 + 0.5*2
}

TEST(Gemm, BetaZeroOverwritesUninitializedOutput)
{
    // Regression: beta == 0 used to compute c *= 0, which propagates NaN/Inf
    // from uninitialized output buffers — exactly what recycled StorageArena
    // blocks contain.  beta == 0 must overwrite without reading c.
    const std::vector<float> a{1, 2, 3, 4};
    const std::vector<float> b{5, 6, 7, 8};
    const float qnan = std::numeric_limits<float>::quiet_NaN();
    std::vector<float> c{qnan, std::numeric_limits<float>::infinity(), qnan, -qnan};
    gemm(a.data(), b.data(), c.data(), 2, 2, 2, 1.0f, 0.0f);
    EXPECT_FLOAT_EQ(c[0], 19);
    EXPECT_FLOAT_EQ(c[1], 22);
    EXPECT_FLOAT_EQ(c[2], 43);
    EXPECT_FLOAT_EQ(c[3], 50);
}

TEST(Gemm, OddKTailAndScaling)
{
    // k = 7 exercises both the 4-wide k-panel and the scalar tail; compare
    // every element against a reference dot product under alpha/beta.
    const auto a = random_vec(3 * 7, 11);
    const auto b = random_vec(7 * 4, 12);
    std::vector<float> c(3 * 4, 2.0f);
    gemm(a.data(), b.data(), c.data(), 3, 7, 4, 0.5f, 3.0f);
    for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 4; ++j) {
            float ref = 2.0f * 3.0f;
            for (int k = 0; k < 7; ++k)
                ref += 0.5f * a[i * 7 + k] * b[k * 4 + j];
            EXPECT_NEAR(c[i * 4 + j], ref, 1e-4) << "at (" << i << "," << j << ")";
        }
    }
}

TEST(Gemm, NonSquare)
{
    const auto a = random_vec(3 * 5, 1);
    const auto b = random_vec(5 * 2, 2);
    std::vector<float> c(3 * 2, 0.0f);
    gemm(a.data(), b.data(), c.data(), 3, 5, 2);
    // Check one element against a manual dot product.
    float ref = 0.0f;
    for (int k = 0; k < 5; ++k)
        ref += a[1 * 5 + k] * b[k * 2 + 1];
    EXPECT_NEAR(c[1 * 2 + 1], ref, 1e-4);
}

TEST(Bmm, BatchesIndependent)
{
    const auto a = random_vec(2 * 2 * 3, 3);
    const auto b = random_vec(2 * 3 * 2, 4);
    std::vector<float> c(2 * 2 * 2, 0.0f);
    bmm(a.data(), b.data(), c.data(), 2, 2, 3, 2);
    std::vector<float> c1(4, 0.0f);
    gemm(a.data() + 6, b.data() + 6, c1.data(), 2, 3, 2);
    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(c[4 + i], c1[i], 1e-5);
}

/// Row K's formula over every element of @p x (and of @p b when given).
template <FusedKernel K>
std::vector<float>
apply_each(const std::vector<float>& x, const std::vector<float>& b = {},
           float alpha = 1.0f)
{
    std::vector<float> out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        out[i] = pointwise_apply<K>(x[i], b.empty() ? 0.0f : b[i], alpha);
    return out;
}

TEST(Pointwise, AddSubMulDiv)
{
    const std::vector<float> a{1, 2, 3};
    const std::vector<float> b{4, 5, 6};
    EXPECT_FLOAT_EQ(apply_each<FusedKernel::kAdd>(a, b, 2.0f)[0], 9.0f);
    EXPECT_FLOAT_EQ(apply_each<FusedKernel::kSub>(a, b, 1.0f)[2], -3.0f);
    EXPECT_FLOAT_EQ(apply_each<FusedKernel::kMul>(a, b)[1], 10.0f);
    EXPECT_FLOAT_EQ(apply_each<FusedKernel::kDiv>(b, a)[2], 2.0f);
}

TEST(Pointwise, Broadcast)
{
    // The op itself: the bias maps onto self's trailing elements.
    SessionOptions opts;
    opts.mode = ExecMode::kNumeric;
    Session s(opts);
    Tensor a = s.alloc({2, 2});
    Tensor bias = s.alloc({2});
    const std::vector<float> av{1, 2, 3, 4};
    const std::vector<float> bv{10, 20};
    std::copy(av.begin(), av.end(), a.f32());
    std::copy(bv.begin(), bv.end(), bias.f32());
    const Tensor out = F::add(s, a, bias);
    EXPECT_FLOAT_EQ(out.f32()[0], 11.0f);
    EXPECT_FLOAT_EQ(out.f32()[3], 24.0f);
}

TEST(Pointwise, ReluAndBackward)
{
    const std::vector<float> x{-1, 0, 2};
    const std::vector<float> y = apply_each<FusedKernel::kRelu>(x);
    EXPECT_FLOAT_EQ(y[0], 0.0f);
    EXPECT_FLOAT_EQ(y[2], 2.0f);
    const std::vector<float> go{1, 1, 1};
    const std::vector<float> g = apply_each<FusedKernel::kReluBwd>(go, x);
    EXPECT_FLOAT_EQ(g[0], 0.0f);
    EXPECT_FLOAT_EQ(g[2], 1.0f);
}

TEST(Pointwise, SigmoidTanhIdentities)
{
    const std::vector<float> x{0.0f};
    EXPECT_NEAR(apply_each<FusedKernel::kSigmoid>(x)[0], 0.5f, 1e-6);
    EXPECT_NEAR(apply_each<FusedKernel::kTanh>(x)[0], 0.0f, 1e-6);
}

TEST(Transpose2d, RoundTrip)
{
    const auto a = random_vec(3 * 4, 5);
    std::vector<float> t(12), back(12);
    transpose2d(a.data(), t.data(), 3, 4);
    EXPECT_FLOAT_EQ(t[0 * 3 + 2], a[2 * 4 + 0]);
    transpose2d(t.data(), back.data(), 4, 3);
    for (int i = 0; i < 12; ++i)
        EXPECT_FLOAT_EQ(back[i], a[i]);
}

TEST(Reductions, SumAndAxis0)
{
    const std::vector<float> a{1, 2, 3, 4, 5, 6};
    EXPECT_DOUBLE_EQ(sum(a.data(), 6), 21.0);
    std::vector<float> out(3);
    sum_axis0(a.data(), out.data(), 2, 3);
    EXPECT_FLOAT_EQ(out[0], 5.0f);
    EXPECT_FLOAT_EQ(out[2], 9.0f);
}

TEST(Conv2d, IdentityKernel)
{
    // 1x1 kernel with weight 1 reproduces the input.
    const auto in = random_vec(1 * 1 * 4 * 4, 6);
    const std::vector<float> w{1.0f};
    std::vector<float> out(16);
    conv2d(in.data(), w.data(), nullptr, out.data(), 1, 1, 4, 4, 1, 1, 1, 1, 0);
    for (int i = 0; i < 16; ++i)
        EXPECT_FLOAT_EQ(out[i], in[i]);
}

TEST(Conv2d, StrideAndPadding)
{
    const auto in = random_vec(1 * 1 * 4 * 4, 7);
    const std::vector<float> w(9, 1.0f / 9.0f);
    std::vector<float> out(2 * 2);
    conv2d(in.data(), w.data(), nullptr, out.data(), 1, 1, 4, 4, 1, 3, 3, 2, 1);
    EXPECT_EQ(out.size(), 4u); // (4+2-3)/2+1 = 2
}

/// Central finite difference of a scalar loss wrt one input element.
double
fd(const std::function<double(const std::vector<float>&)>& loss, std::vector<float> x,
   std::size_t i, float eps = 1e-2f)
{
    x[i] += eps;
    const double up = loss(x);
    x[i] -= 2 * eps;
    const double down = loss(x);
    return (up - down) / (2.0 * static_cast<double>(eps));
}

TEST(Conv2dBackward, MatchesFiniteDifference)
{
    const int64_t n = 1, c = 2, h = 5, wdt = 5, f = 3, k = 3, stride = 1, pad = 1;
    const auto in = random_vec(static_cast<std::size_t>(n * c * h * wdt), 8, 0.5f);
    const auto w = random_vec(static_cast<std::size_t>(f * c * k * k), 9, 0.5f);
    const int64_t out_n = n * f * h * wdt;
    // loss = sum(conv(in, w))
    auto loss_wrt_in = [&](const std::vector<float>& xin) {
        std::vector<float> out(static_cast<std::size_t>(out_n));
        conv2d(xin.data(), w.data(), nullptr, out.data(), n, c, h, wdt, f, k, k, stride,
               pad);
        return sum(out.data(), out_n);
    };
    std::vector<float> go(static_cast<std::size_t>(out_n), 1.0f);
    std::vector<float> gin(in.size()), gw(w.size()), gb(static_cast<std::size_t>(f));
    conv2d_backward(go.data(), in.data(), w.data(), gin.data(), gw.data(), gb.data(), n, c,
                    h, wdt, f, k, k, stride, pad);
    for (std::size_t i : {0u, 7u, 24u}) {
        EXPECT_NEAR(gin[i], fd(loss_wrt_in, in, i), 0.05)
            << "grad_input mismatch at " << i;
    }
    auto loss_wrt_w = [&](const std::vector<float>& xw) {
        std::vector<float> out(static_cast<std::size_t>(out_n));
        conv2d(in.data(), xw.data(), nullptr, out.data(), n, c, h, wdt, f, k, k, stride,
               pad);
        return sum(out.data(), out_n);
    };
    for (std::size_t i : {0u, 5u, 17u})
        EXPECT_NEAR(gw[i], fd(loss_wrt_w, w, i), 0.05) << "grad_weight mismatch at " << i;
}

TEST(BatchNorm, NormalizesChannels)
{
    const int64_t n = 4, c = 2, spatial = 8;
    const auto in = random_vec(static_cast<std::size_t>(n * c * spatial), 10, 3.0f);
    std::vector<float> out(in.size());
    batch_norm(in.data(), nullptr, nullptr, out.data(), n, c, spatial, 1e-5f);
    // Per-channel mean ≈ 0 and variance ≈ 1.
    for (int64_t ci = 0; ci < c; ++ci) {
        double mean = 0.0, var = 0.0;
        for (int64_t ni = 0; ni < n; ++ni)
            for (int64_t s = 0; s < spatial; ++s)
                mean += out[static_cast<std::size_t>((ni * c + ci) * spatial + s)];
        mean /= static_cast<double>(n * spatial);
        for (int64_t ni = 0; ni < n; ++ni)
            for (int64_t s = 0; s < spatial; ++s) {
                const double d =
                    out[static_cast<std::size_t>((ni * c + ci) * spatial + s)] - mean;
                var += d * d;
            }
        var /= static_cast<double>(n * spatial);
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(BatchNormBackward, MatchesFiniteDifference)
{
    const int64_t n = 2, c = 2, spatial = 4;
    const auto in = random_vec(static_cast<std::size_t>(n * c * spatial), 11);
    const std::vector<float> gamma{1.5f, 0.5f};
    // loss = sum(bn(x) * mask) with a fixed mask to break symmetry
    const auto mask = random_vec(in.size(), 12);
    auto loss = [&](const std::vector<float>& x) {
        std::vector<float> out(x.size());
        batch_norm(x.data(), gamma.data(), nullptr, out.data(), n, c, spatial, 1e-5f);
        double l = 0.0;
        for (std::size_t i = 0; i < out.size(); ++i)
            l += static_cast<double>(out[i]) * static_cast<double>(mask[i]);
        return l;
    };
    std::vector<float> gin(in.size()), gg(2), gb(2);
    batch_norm_backward(mask.data(), in.data(), gamma.data(), gin.data(), gg.data(),
                        gb.data(), n, c, spatial, 1e-5f);
    for (std::size_t i : {0u, 5u, 13u})
        EXPECT_NEAR(gin[i], fd(loss, in, i), 0.05) << "bn grad mismatch at " << i;
}

TEST(MaxPool, ForwardAndBackward)
{
    const std::vector<float> in{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
    std::vector<float> out(4);
    max_pool2d(in.data(), out.data(), 1, 1, 4, 4, 2, 2, 0);
    EXPECT_FLOAT_EQ(out[0], 6.0f);
    EXPECT_FLOAT_EQ(out[3], 16.0f);
    std::vector<float> gin(16);
    const std::vector<float> go{1, 1, 1, 1};
    max_pool2d_backward(go.data(), in.data(), gin.data(), 1, 1, 4, 4, 2, 2, 0);
    EXPECT_FLOAT_EQ(gin[5], 1.0f);  // argmax of window 0
    EXPECT_FLOAT_EQ(gin[0], 0.0f);
    double total = 0;
    for (float g : gin)
        total += g;
    EXPECT_DOUBLE_EQ(total, 4.0);
}

TEST(AdaptiveAvgPool, GlobalPool)
{
    const std::vector<float> in{1, 2, 3, 4};
    std::vector<float> out(1);
    adaptive_avg_pool2d(in.data(), out.data(), 1, 1, 2, 2, 1, 1);
    EXPECT_FLOAT_EQ(out[0], 2.5f);
    std::vector<float> gin(4);
    const std::vector<float> go{1.0f};
    adaptive_avg_pool2d_backward(go.data(), gin.data(), 1, 1, 2, 2, 1, 1);
    EXPECT_FLOAT_EQ(gin[0], 0.25f);
}

TEST(Softmax, RowsSumToOne)
{
    const auto in = random_vec(3 * 7, 13);
    std::vector<float> out(in.size());
    softmax(in.data(), out.data(), 3, 7);
    for (int r = 0; r < 3; ++r) {
        double s = 0.0;
        for (int c = 0; c < 7; ++c)
            s += out[static_cast<std::size_t>(r * 7 + c)];
        EXPECT_NEAR(s, 1.0, 1e-5);
    }
}

TEST(LogSoftmax, ConsistentWithSoftmax)
{
    const auto in = random_vec(2 * 5, 14);
    std::vector<float> sm(in.size()), lsm(in.size());
    softmax(in.data(), sm.data(), 2, 5);
    log_softmax(in.data(), lsm.data(), 2, 5);
    for (std::size_t i = 0; i < in.size(); ++i)
        EXPECT_NEAR(std::exp(lsm[i]), sm[i], 1e-5);
}

TEST(NllLoss, KnownValue)
{
    // log-probs: row 0 target 1 → loss = -logp[0][1]
    const std::vector<float> logp{-2.0f, -0.5f, -1.0f, -3.0f};
    const std::vector<int64_t> target{1, 0};
    EXPECT_NEAR(nll_loss(logp.data(), target.data(), 2, 2), (0.5 + 1.0) / 2.0, 1e-6);
    std::vector<float> g(4);
    nll_loss_backward(1.0f, target.data(), g.data(), 2, 2);
    EXPECT_FLOAT_EQ(g[1], -0.5f);
    EXPECT_FLOAT_EQ(g[2], -0.5f);
    EXPECT_FLOAT_EQ(g[0], 0.0f);
}

TEST(BceWithLogits, MatchesFiniteDifference)
{
    const auto logits = random_vec(6, 15);
    const std::vector<float> target{0, 1, 1, 0, 1, 0};
    auto loss = [&](const std::vector<float>& x) {
        return bce_with_logits(x.data(), target.data(), 6);
    };
    std::vector<float> g(6);
    bce_with_logits_backward(1.0f, logits.data(), target.data(), g.data(), 6);
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_NEAR(g[i], fd(loss, logits, i), 1e-3);
}

TEST(EmbeddingBag, SumsRows)
{
    // weight: 3 rows of dim 2
    const std::vector<float> w{1, 2, 10, 20, 100, 200};
    const std::vector<int64_t> idx{0, 2, 1};
    const std::vector<int64_t> off{0, 2}; // bag0 = rows {0,2}, bag1 = {1}
    std::vector<float> out(4);
    embedding_bag(w.data(), idx.data(), off.data(), out.data(), 3, 2, 2);
    EXPECT_FLOAT_EQ(out[0], 101.0f);
    EXPECT_FLOAT_EQ(out[1], 202.0f);
    EXPECT_FLOAT_EQ(out[2], 10.0f);
}

TEST(EmbeddingBagBackward, ScatterAdds)
{
    const std::vector<int64_t> idx{0, 2, 0};
    const std::vector<int64_t> off{0, 2};
    const std::vector<float> go{1, 10, 2, 20};
    // Seed with NaN: the kernel must zero-fill before scattering, since its
    // output may be a recycled (uninitialized) arena buffer.
    std::vector<float> gw(6, std::numeric_limits<float>::quiet_NaN());
    embedding_bag_backward(go.data(), idx.data(), off.data(), gw.data(), 3, 3, 2, 2);
    EXPECT_FLOAT_EQ(gw[0], 3.0f);  // row 0 hit by bag0 and bag1
    EXPECT_FLOAT_EQ(gw[1], 30.0f);
    EXPECT_FLOAT_EQ(gw[2], 0.0f);  // row 1 untouched: zero, not NaN
    EXPECT_FLOAT_EQ(gw[4], 1.0f);  // row 2 from bag0
}

TEST(Lstm, OutputBounded)
{
    const int64_t t = 3, b = 2, i = 4, h = 5;
    const auto in = random_vec(static_cast<std::size_t>(t * b * i), 16);
    const auto w_ih = random_vec(static_cast<std::size_t>(4 * h * i), 17, 0.3f);
    const auto w_hh = random_vec(static_cast<std::size_t>(4 * h * h), 18, 0.3f);
    const auto bias = random_vec(static_cast<std::size_t>(4 * h), 19, 0.1f);
    std::vector<float> out(static_cast<std::size_t>(t * b * h));
    lstm_layer(in.data(), w_ih.data(), w_hh.data(), bias.data(), out.data(), t, b, i, h);
    for (float v : out) {
        // h = o * tanh(c) ∈ (-1, 1)
        EXPECT_GT(v, -1.0f);
        EXPECT_LT(v, 1.0f);
    }
}

TEST(LstmBackward, MatchesFiniteDifference)
{
    const int64_t t = 2, b = 1, i = 3, h = 2;
    const auto in = random_vec(static_cast<std::size_t>(t * b * i), 20, 0.5f);
    const auto w_ih = random_vec(static_cast<std::size_t>(4 * h * i), 21, 0.4f);
    const auto w_hh = random_vec(static_cast<std::size_t>(4 * h * h), 22, 0.4f);
    const auto bias = random_vec(static_cast<std::size_t>(4 * h), 23, 0.1f);
    auto loss = [&](const std::vector<float>& x) {
        std::vector<float> out(static_cast<std::size_t>(t * b * h));
        lstm_layer(x.data(), w_ih.data(), w_hh.data(), bias.data(), out.data(), t, b, i, h);
        return sum(out.data(), t * b * h);
    };
    std::vector<float> go(static_cast<std::size_t>(t * b * h), 1.0f);
    std::vector<float> gin(in.size()), gwi(w_ih.size()), gwh(w_hh.size()), gb(bias.size());
    lstm_layer_backward(go.data(), in.data(), w_ih.data(), w_hh.data(), bias.data(),
                        gin.data(), gwi.data(), gwh.data(), gb.data(), t, b, i, h);
    for (std::size_t k = 0; k < in.size(); ++k)
        EXPECT_NEAR(gin[k], fd(loss, in, k, 5e-3f), 2e-2) << "lstm dIn at " << k;
    auto loss_w = [&](const std::vector<float>& xw) {
        std::vector<float> out(static_cast<std::size_t>(t * b * h));
        lstm_layer(in.data(), xw.data(), w_hh.data(), bias.data(), out.data(), t, b, i, h);
        return sum(out.data(), t * b * h);
    };
    for (std::size_t k : {0u, 3u, 11u})
        EXPECT_NEAR(gwi[k], fd(loss_w, w_ih, k, 5e-3f), 2e-2) << "lstm dWih at " << k;
}

TEST(Gelu, KnownValuesAndBackward)
{
    const std::vector<float> x{-2.0f, 0.0f, 2.0f};
    const std::vector<float> y = apply_each<FusedKernel::kGelu>(x);
    EXPECT_NEAR(y[1], 0.0f, 1e-6);
    EXPECT_NEAR(y[2], 1.9545f, 1e-3); // 2·Φ(2)
    EXPECT_NEAR(y[0], -0.0455f, 1e-3);
    auto loss = [&](const std::vector<float>& v) {
        const std::vector<float> out = apply_each<FusedKernel::kGelu>(v);
        return sum(out.data(), static_cast<int64_t>(out.size()));
    };
    const std::vector<float> go{1, 1, 1};
    const std::vector<float> g = apply_each<FusedKernel::kGeluBwd>(go, x);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_NEAR(g[i], fd(loss, x, i, 1e-3f), 1e-2);
}

TEST(LayerNorm, NormalizesRows)
{
    const auto in = random_vec(4 * 16, 30, 3.0f);
    std::vector<float> out(in.size());
    layer_norm(in.data(), nullptr, nullptr, out.data(), 4, 16, 1e-5f);
    for (int r = 0; r < 4; ++r) {
        double mean = 0.0, var = 0.0;
        for (int c = 0; c < 16; ++c)
            mean += out[static_cast<std::size_t>(r * 16 + c)];
        mean /= 16.0;
        for (int c = 0; c < 16; ++c) {
            const double d = out[static_cast<std::size_t>(r * 16 + c)] - mean;
            var += d * d;
        }
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var / 16.0, 1.0, 1e-2);
    }
}

TEST(LayerNormBackward, MatchesFiniteDifference)
{
    const int64_t rows = 3, cols = 8;
    const auto in = random_vec(static_cast<std::size_t>(rows * cols), 31);
    const auto gamma = random_vec(static_cast<std::size_t>(cols), 32, 0.5f);
    const auto mask = random_vec(in.size(), 33);
    auto loss = [&](const std::vector<float>& x) {
        std::vector<float> out(x.size());
        layer_norm(x.data(), gamma.data(), nullptr, out.data(), rows, cols, 1e-5f);
        double l = 0.0;
        for (std::size_t i = 0; i < out.size(); ++i)
            l += static_cast<double>(out[i]) * static_cast<double>(mask[i]);
        return l;
    };
    std::vector<float> gin(in.size()), gg(static_cast<std::size_t>(cols)),
        gb(static_cast<std::size_t>(cols));
    layer_norm_backward(mask.data(), in.data(), gamma.data(), gin.data(), gg.data(),
                        gb.data(), rows, cols, 1e-5f);
    for (std::size_t i : {0u, 9u, 21u})
        EXPECT_NEAR(gin[i], fd(loss, in, i), 0.05) << "layer_norm grad at " << i;
}

TEST(LogSoftmaxBackward, RowsSumToZero)
{
    const auto in = random_vec(2 * 4, 24);
    std::vector<float> lsm(in.size());
    log_softmax(in.data(), lsm.data(), 2, 4);
    const auto go = random_vec(in.size(), 25);
    std::vector<float> g(in.size());
    log_softmax_backward(go.data(), lsm.data(), g.data(), 2, 4);
    // d/dx of log-softmax preserves Σgrad per row only when Σgo per row
    // matches; the invariant is Σ g = Σ go − Σ softmax*Σgo = 0 per row.
    for (int r = 0; r < 2; ++r) {
        double gs = 0.0;
        for (int c = 0; c < 4; ++c)
            gs += g[static_cast<std::size_t>(r * 4 + c)];
        EXPECT_NEAR(gs, 0.0, 1e-4);
    }
}

} // namespace
} // namespace mystique::fw::math
