#include "framework/math.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.h"

namespace mystique::fw::math {

void
gemm(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
     float alpha, float beta)
{
    for (int64_t i = 0; i < m; ++i) {
        float* crow = c + i * n;
        // beta == 0 must OVERWRITE, never scale: the output may be recycled
        // (uninitialized) arena storage, and NaN * 0 == NaN would propagate
        // garbage into every product.  This is the BLAS convention.
        if (beta == 0.0f)
            std::fill(crow, crow + n, 0.0f);
        else if (beta != 1.0f)
            for (int64_t j = 0; j < n; ++j)
                crow[j] *= beta;
        const float* arow = a + i * k;
        // k-panels of 4: one pass over the C row per four A elements keeps
        // the row in registers/L1 and gives the compiler a clean 4-term FMA
        // chain to vectorize over j.
        int64_t p = 0;
        for (; p + 4 <= k; p += 4) {
            const float av0 = alpha * arow[p];
            const float av1 = alpha * arow[p + 1];
            const float av2 = alpha * arow[p + 2];
            const float av3 = alpha * arow[p + 3];
            const float* b0 = b + p * n;
            const float* b1 = b0 + n;
            const float* b2 = b1 + n;
            const float* b3 = b2 + n;
            for (int64_t j = 0; j < n; ++j)
                crow[j] += av0 * b0[j] + av1 * b1[j] + av2 * b2[j] + av3 * b3[j];
        }
        for (; p < k; ++p) {
            const float av = alpha * arow[p];
            const float* brow = b + p * n;
            for (int64_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
bmm(const float* a, const float* b, float* c, int64_t batch, int64_t m, int64_t k,
    int64_t n)
{
    for (int64_t i = 0; i < batch; ++i)
        gemm(a + i * m * k, b + i * k * n, c + i * m * n, m, k, n, 1.0f, 0.0f);
}

void
layer_norm(const float* in, const float* gamma, const float* beta, float* out,
           int64_t rows, int64_t cols, float eps)
{
    for (int64_t r = 0; r < rows; ++r) {
        const float* row = in + r * cols;
        double mean = 0.0;
        for (int64_t c = 0; c < cols; ++c)
            mean += static_cast<double>(row[c]);
        mean /= static_cast<double>(cols);
        double var = 0.0;
        for (int64_t c = 0; c < cols; ++c) {
            const double d = static_cast<double>(row[c]) - mean;
            var += d * d;
        }
        var /= static_cast<double>(cols);
        const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps);
        for (int64_t c = 0; c < cols; ++c) {
            const float xhat =
                (row[c] - static_cast<float>(mean)) * inv_std;
            out[r * cols + c] = xhat * (gamma != nullptr ? gamma[c] : 1.0f) +
                                (beta != nullptr ? beta[c] : 0.0f);
        }
    }
}

void
layer_norm_backward(const float* grad_out, const float* in, const float* gamma,
                    float* grad_in, float* grad_gamma, float* grad_beta, int64_t rows,
                    int64_t cols, float eps)
{
    if (grad_gamma != nullptr)
        std::fill(grad_gamma, grad_gamma + cols, 0.0f);
    if (grad_beta != nullptr)
        std::fill(grad_beta, grad_beta + cols, 0.0f);
    const double m = static_cast<double>(cols);
    for (int64_t r = 0; r < rows; ++r) {
        const float* row = in + r * cols;
        const float* grow = grad_out + r * cols;
        double mean = 0.0, var = 0.0;
        for (int64_t c = 0; c < cols; ++c)
            mean += static_cast<double>(row[c]);
        mean /= m;
        for (int64_t c = 0; c < cols; ++c) {
            const double d = static_cast<double>(row[c]) - mean;
            var += d * d;
        }
        var /= m;
        const double inv_std = 1.0 / std::sqrt(var + static_cast<double>(eps));
        double sum_g = 0.0, sum_gx = 0.0;
        for (int64_t c = 0; c < cols; ++c) {
            const double xhat = (static_cast<double>(row[c]) - mean) * inv_std;
            const double g = static_cast<double>(grow[c]) *
                             (gamma != nullptr ? static_cast<double>(gamma[c]) : 1.0);
            sum_g += g;
            sum_gx += g * xhat;
            if (grad_gamma != nullptr)
                grad_gamma[c] += static_cast<float>(static_cast<double>(grow[c]) * xhat);
            if (grad_beta != nullptr)
                grad_beta[c] += grow[c];
        }
        for (int64_t c = 0; c < cols; ++c) {
            const double xhat = (static_cast<double>(row[c]) - mean) * inv_std;
            const double g = static_cast<double>(grow[c]) *
                             (gamma != nullptr ? static_cast<double>(gamma[c]) : 1.0);
            grad_in[r * cols + c] =
                static_cast<float>(inv_std * (g - sum_g / m - xhat * sum_gx / m));
        }
    }
}

void
transpose2d(const float* a, float* out, int64_t rows, int64_t cols)
{
    for (int64_t i = 0; i < rows; ++i)
        for (int64_t j = 0; j < cols; ++j)
            out[j * rows + i] = a[i * cols + j];
}

double
sum(const float* a, int64_t n)
{
    double s = 0.0;
    for (int64_t i = 0; i < n; ++i)
        s += static_cast<double>(a[i]);
    return s;
}

void
sum_axis0(const float* a, float* out, int64_t outer, int64_t inner)
{
    std::fill(out, out + inner, 0.0f);
    for (int64_t i = 0; i < outer; ++i)
        for (int64_t j = 0; j < inner; ++j)
            out[j] += a[i * inner + j];
}

namespace {

int64_t
conv_out_dim(int64_t in, int64_t k, int64_t stride, int64_t pad)
{
    return (in + 2 * pad - k) / stride + 1;
}

} // namespace

void
conv2d(const float* in, const float* w, const float* bias, float* out, int64_t n,
       int64_t c, int64_t h, int64_t wd, int64_t f, int64_t kh, int64_t kw,
       int64_t stride, int64_t pad)
{
    const int64_t oh = conv_out_dim(h, kh, stride, pad);
    const int64_t ow = conv_out_dim(wd, kw, stride, pad);
    for (int64_t ni = 0; ni < n; ++ni) {
        for (int64_t fi = 0; fi < f; ++fi) {
            for (int64_t y = 0; y < oh; ++y) {
                for (int64_t x = 0; x < ow; ++x) {
                    float acc = bias != nullptr ? bias[fi] : 0.0f;
                    for (int64_t ci = 0; ci < c; ++ci) {
                        for (int64_t dy = 0; dy < kh; ++dy) {
                            const int64_t iy = y * stride + dy - pad;
                            if (iy < 0 || iy >= h)
                                continue;
                            for (int64_t dx = 0; dx < kw; ++dx) {
                                const int64_t ix = x * stride + dx - pad;
                                if (ix < 0 || ix >= wd)
                                    continue;
                                acc += in[((ni * c + ci) * h + iy) * wd + ix] *
                                       w[((fi * c + ci) * kh + dy) * kw + dx];
                            }
                        }
                    }
                    out[((ni * f + fi) * oh + y) * ow + x] = acc;
                }
            }
        }
    }
}

void
conv2d_backward(const float* grad_out, const float* in, const float* w, float* grad_in,
                float* grad_w, float* grad_b, int64_t n, int64_t c, int64_t h, int64_t wd,
                int64_t f, int64_t kh, int64_t kw, int64_t stride, int64_t pad)
{
    const int64_t oh = conv_out_dim(h, kh, stride, pad);
    const int64_t ow = conv_out_dim(wd, kw, stride, pad);
    std::fill(grad_in, grad_in + n * c * h * wd, 0.0f);
    std::fill(grad_w, grad_w + f * c * kh * kw, 0.0f);
    if (grad_b != nullptr)
        std::fill(grad_b, grad_b + f, 0.0f);
    for (int64_t ni = 0; ni < n; ++ni) {
        for (int64_t fi = 0; fi < f; ++fi) {
            for (int64_t y = 0; y < oh; ++y) {
                for (int64_t x = 0; x < ow; ++x) {
                    const float g = grad_out[((ni * f + fi) * oh + y) * ow + x];
                    if (grad_b != nullptr)
                        grad_b[fi] += g;
                    for (int64_t ci = 0; ci < c; ++ci) {
                        for (int64_t dy = 0; dy < kh; ++dy) {
                            const int64_t iy = y * stride + dy - pad;
                            if (iy < 0 || iy >= h)
                                continue;
                            for (int64_t dx = 0; dx < kw; ++dx) {
                                const int64_t ix = x * stride + dx - pad;
                                if (ix < 0 || ix >= wd)
                                    continue;
                                const int64_t in_idx = ((ni * c + ci) * h + iy) * wd + ix;
                                const int64_t w_idx = ((fi * c + ci) * kh + dy) * kw + dx;
                                grad_in[in_idx] += g * w[w_idx];
                                grad_w[w_idx] += g * in[in_idx];
                            }
                        }
                    }
                }
            }
        }
    }
}

void
batch_norm_stats(const float* in, int64_t n, int64_t c, int64_t spatial, float eps,
                 float* mean, float* inv_std)
{
    const int64_t count = n * spatial;
    for (int64_t ci = 0; ci < c; ++ci) {
        double m = 0.0;
        for (int64_t ni = 0; ni < n; ++ni)
            for (int64_t s = 0; s < spatial; ++s)
                m += static_cast<double>(in[(ni * c + ci) * spatial + s]);
        m /= static_cast<double>(count);
        double var = 0.0;
        for (int64_t ni = 0; ni < n; ++ni)
            for (int64_t s = 0; s < spatial; ++s) {
                const double d = static_cast<double>(in[(ni * c + ci) * spatial + s]) - m;
                var += d * d;
            }
        var /= static_cast<double>(count);
        mean[ci] = static_cast<float>(m);
        inv_std[ci] = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    }
}

void
batch_norm(const float* in, const float* gamma, const float* beta, float* out, int64_t n,
           int64_t c, int64_t spatial, float eps)
{
    std::vector<float> mean(static_cast<std::size_t>(c));
    std::vector<float> inv_std(static_cast<std::size_t>(c));
    batch_norm_stats(in, n, c, spatial, eps, mean.data(), inv_std.data());
    for (int64_t ci = 0; ci < c; ++ci) {
        const auto k = static_cast<std::size_t>(ci);
        const float g = gamma != nullptr ? gamma[ci] : 1.0f;
        const float b = beta != nullptr ? beta[ci] : 0.0f;
        for (int64_t ni = 0; ni < n; ++ni)
            for (int64_t s = 0; s < spatial; ++s) {
                const int64_t idx = (ni * c + ci) * spatial + s;
                out[idx] = (in[idx] - mean[k]) * inv_std[k] * g + b;
            }
    }
}

void
batch_norm_backward(const float* grad_out, const float* in, const float* gamma,
                    float* grad_in, float* grad_gamma, float* grad_beta, int64_t n,
                    int64_t c, int64_t spatial, float eps)
{
    const int64_t count = n * spatial;
    const double m = static_cast<double>(count);
    for (int64_t ci = 0; ci < c; ++ci) {
        double mean = 0.0, var = 0.0;
        for (int64_t ni = 0; ni < n; ++ni)
            for (int64_t s = 0; s < spatial; ++s)
                mean += static_cast<double>(in[(ni * c + ci) * spatial + s]);
        mean /= m;
        for (int64_t ni = 0; ni < n; ++ni)
            for (int64_t s = 0; s < spatial; ++s) {
                const double d = static_cast<double>(in[(ni * c + ci) * spatial + s]) - mean;
                var += d * d;
            }
        var /= m;
        const double inv_std = 1.0 / std::sqrt(var + static_cast<double>(eps));
        const double g = gamma != nullptr ? static_cast<double>(gamma[ci]) : 1.0;

        double sum_g = 0.0, sum_gx = 0.0;
        for (int64_t ni = 0; ni < n; ++ni)
            for (int64_t s = 0; s < spatial; ++s) {
                const int64_t idx = (ni * c + ci) * spatial + s;
                const double xhat = (static_cast<double>(in[idx]) - mean) * inv_std;
                sum_g += static_cast<double>(grad_out[idx]);
                sum_gx += static_cast<double>(grad_out[idx]) * xhat;
            }
        if (grad_gamma != nullptr)
            grad_gamma[ci] = static_cast<float>(sum_gx);
        if (grad_beta != nullptr)
            grad_beta[ci] = static_cast<float>(sum_g);
        for (int64_t ni = 0; ni < n; ++ni)
            for (int64_t s = 0; s < spatial; ++s) {
                const int64_t idx = (ni * c + ci) * spatial + s;
                const double xhat = (static_cast<double>(in[idx]) - mean) * inv_std;
                grad_in[idx] = static_cast<float>(
                    g * inv_std *
                    (static_cast<double>(grad_out[idx]) - sum_g / m - xhat * sum_gx / m));
            }
    }
}

void
max_pool2d(const float* in, float* out, int64_t n, int64_t c, int64_t h, int64_t w,
           int64_t k, int64_t stride, int64_t pad)
{
    const int64_t oh = conv_out_dim(h, k, stride, pad);
    const int64_t ow = conv_out_dim(w, k, stride, pad);
    for (int64_t nc = 0; nc < n * c; ++nc) {
        for (int64_t y = 0; y < oh; ++y) {
            for (int64_t x = 0; x < ow; ++x) {
                float best = -std::numeric_limits<float>::infinity();
                for (int64_t dy = 0; dy < k; ++dy) {
                    const int64_t iy = y * stride + dy - pad;
                    if (iy < 0 || iy >= h)
                        continue;
                    for (int64_t dx = 0; dx < k; ++dx) {
                        const int64_t ix = x * stride + dx - pad;
                        if (ix < 0 || ix >= w)
                            continue;
                        best = std::max(best, in[(nc * h + iy) * w + ix]);
                    }
                }
                out[(nc * oh + y) * ow + x] = best;
            }
        }
    }
}

void
max_pool2d_backward(const float* grad_out, const float* in, float* grad_in, int64_t n,
                    int64_t c, int64_t h, int64_t w, int64_t k, int64_t stride,
                    int64_t pad)
{
    const int64_t oh = conv_out_dim(h, k, stride, pad);
    const int64_t ow = conv_out_dim(w, k, stride, pad);
    std::fill(grad_in, grad_in + n * c * h * w, 0.0f);
    for (int64_t nc = 0; nc < n * c; ++nc) {
        for (int64_t y = 0; y < oh; ++y) {
            for (int64_t x = 0; x < ow; ++x) {
                float best = -std::numeric_limits<float>::infinity();
                int64_t best_idx = -1;
                for (int64_t dy = 0; dy < k; ++dy) {
                    const int64_t iy = y * stride + dy - pad;
                    if (iy < 0 || iy >= h)
                        continue;
                    for (int64_t dx = 0; dx < k; ++dx) {
                        const int64_t ix = x * stride + dx - pad;
                        if (ix < 0 || ix >= w)
                            continue;
                        const int64_t idx = (nc * h + iy) * w + ix;
                        if (in[idx] > best) {
                            best = in[idx];
                            best_idx = idx;
                        }
                    }
                }
                if (best_idx >= 0)
                    grad_in[best_idx] += grad_out[(nc * oh + y) * ow + x];
            }
        }
    }
}

void
adaptive_avg_pool2d(const float* in, float* out, int64_t n, int64_t c, int64_t h,
                    int64_t w, int64_t oh, int64_t ow)
{
    for (int64_t nc = 0; nc < n * c; ++nc) {
        for (int64_t y = 0; y < oh; ++y) {
            const int64_t y0 = y * h / oh;
            const int64_t y1 = (y + 1) * h / oh;
            for (int64_t x = 0; x < ow; ++x) {
                const int64_t x0 = x * w / ow;
                const int64_t x1 = (x + 1) * w / ow;
                double acc = 0.0;
                for (int64_t iy = y0; iy < y1; ++iy)
                    for (int64_t ix = x0; ix < x1; ++ix)
                        acc += static_cast<double>(in[(nc * h + iy) * w + ix]);
                out[(nc * oh + y) * ow + x] =
                    static_cast<float>(acc / static_cast<double>((y1 - y0) * (x1 - x0)));
            }
        }
    }
}

void
adaptive_avg_pool2d_backward(const float* grad_out, float* grad_in, int64_t n, int64_t c,
                             int64_t h, int64_t w, int64_t oh, int64_t ow)
{
    std::fill(grad_in, grad_in + n * c * h * w, 0.0f);
    for (int64_t nc = 0; nc < n * c; ++nc) {
        for (int64_t y = 0; y < oh; ++y) {
            const int64_t y0 = y * h / oh;
            const int64_t y1 = (y + 1) * h / oh;
            for (int64_t x = 0; x < ow; ++x) {
                const int64_t x0 = x * w / ow;
                const int64_t x1 = (x + 1) * w / ow;
                const float g = grad_out[(nc * oh + y) * ow + x] /
                                static_cast<float>((y1 - y0) * (x1 - x0));
                for (int64_t iy = y0; iy < y1; ++iy)
                    for (int64_t ix = x0; ix < x1; ++ix)
                        grad_in[(nc * h + iy) * w + ix] += g;
            }
        }
    }
}

void
softmax(const float* in, float* out, int64_t rows, int64_t cols)
{
    for (int64_t r = 0; r < rows; ++r) {
        const float* row = in + r * cols;
        float* orow = out + r * cols;
        float mx = row[0];
        for (int64_t j = 1; j < cols; ++j)
            mx = std::max(mx, row[j]);
        double denom = 0.0;
        for (int64_t j = 0; j < cols; ++j) {
            orow[j] = std::exp(row[j] - mx);
            denom += static_cast<double>(orow[j]);
        }
        const float inv = static_cast<float>(1.0 / denom);
        for (int64_t j = 0; j < cols; ++j)
            orow[j] *= inv;
    }
}

void
log_softmax(const float* in, float* out, int64_t rows, int64_t cols)
{
    for (int64_t r = 0; r < rows; ++r) {
        const float* row = in + r * cols;
        float* orow = out + r * cols;
        float mx = row[0];
        for (int64_t j = 1; j < cols; ++j)
            mx = std::max(mx, row[j]);
        double denom = 0.0;
        for (int64_t j = 0; j < cols; ++j)
            denom += std::exp(static_cast<double>(row[j] - mx));
        const float logz = mx + static_cast<float>(std::log(denom));
        for (int64_t j = 0; j < cols; ++j)
            orow[j] = row[j] - logz;
    }
}

void
log_softmax_backward(const float* grad, const float* output, float* out, int64_t rows,
                     int64_t cols)
{
    for (int64_t r = 0; r < rows; ++r) {
        double gsum = 0.0;
        for (int64_t j = 0; j < cols; ++j)
            gsum += static_cast<double>(grad[r * cols + j]);
        for (int64_t j = 0; j < cols; ++j) {
            const int64_t idx = r * cols + j;
            out[idx] = grad[idx] -
                       std::exp(output[idx]) * static_cast<float>(gsum);
        }
    }
}

double
nll_loss(const float* logp, const int64_t* target, int64_t rows, int64_t cols)
{
    double loss = 0.0;
    for (int64_t r = 0; r < rows; ++r) {
        const int64_t t = target[r];
        MYST_CHECK_MSG(t >= 0 && t < cols, "nll target out of range");
        loss -= static_cast<double>(logp[r * cols + t]);
    }
    return loss / static_cast<double>(rows);
}

void
nll_loss_backward(float grad, const int64_t* target, float* out, int64_t rows,
                  int64_t cols)
{
    std::fill(out, out + rows * cols, 0.0f);
    const float g = -grad / static_cast<float>(rows);
    for (int64_t r = 0; r < rows; ++r)
        out[r * cols + target[r]] = g;
}

double
bce_with_logits(const float* logits, const float* target, int64_t n)
{
    double loss = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        const double x = static_cast<double>(logits[i]);
        const double t = static_cast<double>(target[i]);
        // Numerically-stable formulation.
        loss += std::max(x, 0.0) - x * t + std::log1p(std::exp(-std::fabs(x)));
    }
    return loss / static_cast<double>(n);
}

void
bce_with_logits_backward(float grad, const float* logits, const float* target, float* out,
                         int64_t n)
{
    const float scale = grad / static_cast<float>(n);
    for (int64_t i = 0; i < n; ++i) {
        const float sig = 1.0f / (1.0f + std::exp(-logits[i]));
        out[i] = scale * (sig - target[i]);
    }
}

void
embedding_bag(const float* weight, const int64_t* indices, const int64_t* offsets,
              float* out, int64_t nnz, int64_t bags, int64_t dim)
{
    for (int64_t b = 0; b < bags; ++b) {
        const int64_t begin = offsets[b];
        const int64_t end = b + 1 < bags ? offsets[b + 1] : nnz;
        float* orow = out + b * dim;
        std::fill(orow, orow + dim, 0.0f);
        for (int64_t p = begin; p < end; ++p) {
            const float* wrow = weight + indices[p] * dim;
            for (int64_t d = 0; d < dim; ++d)
                orow[d] += wrow[d];
        }
    }
}

void
embedding_bag_backward(const float* grad_out, const int64_t* indices,
                       const int64_t* offsets, float* grad_weight, int64_t rows,
                       int64_t nnz, int64_t bags, int64_t dim)
{
    std::fill(grad_weight, grad_weight + rows * dim, 0.0f);
    for (int64_t b = 0; b < bags; ++b) {
        const int64_t begin = offsets[b];
        const int64_t end = b + 1 < bags ? offsets[b + 1] : nnz;
        const float* grow = grad_out + b * dim;
        for (int64_t p = begin; p < end; ++p) {
            float* wrow = grad_weight + indices[p] * dim;
            for (int64_t d = 0; d < dim; ++d)
                wrow[d] += grow[d];
        }
    }
}

namespace {

/// Runs LSTM forward, optionally caching per-step gate activations
/// (i, f, g, o) and cell states for BPTT.
void
lstm_forward_impl(const float* in, const float* w_ih, const float* w_hh,
                  const float* bias, float* out, int64_t t, int64_t b, int64_t i,
                  int64_t h, std::vector<float>* gates_cache,
                  std::vector<float>* cell_cache)
{
    std::vector<float> hprev(static_cast<std::size_t>(b * h), 0.0f);
    std::vector<float> cprev(static_cast<std::size_t>(b * h), 0.0f);
    std::vector<float> gates(static_cast<std::size_t>(b * 4 * h));
    for (int64_t step = 0; step < t; ++step) {
        const float* x = in + step * b * i;
        // gates = x @ w_ih^T + h @ w_hh^T + bias
        for (int64_t bi = 0; bi < b; ++bi) {
            for (int64_t gi = 0; gi < 4 * h; ++gi) {
                float acc = bias != nullptr ? bias[gi] : 0.0f;
                const float* wi = w_ih + gi * i;
                for (int64_t k = 0; k < i; ++k)
                    acc += x[bi * i + k] * wi[k];
                const float* wh = w_hh + gi * h;
                for (int64_t k = 0; k < h; ++k)
                    acc += hprev[bi * h + k] * wh[k];
                gates[bi * 4 * h + gi] = acc;
            }
        }
        for (int64_t bi = 0; bi < b; ++bi) {
            for (int64_t k = 0; k < h; ++k) {
                float* g = gates.data() + bi * 4 * h;
                const float ig = 1.0f / (1.0f + std::exp(-g[k]));
                const float fg = 1.0f / (1.0f + std::exp(-g[h + k]));
                const float gg = std::tanh(g[2 * h + k]);
                const float og = 1.0f / (1.0f + std::exp(-g[3 * h + k]));
                const float c = fg * cprev[bi * h + k] + ig * gg;
                const float hv = og * std::tanh(c);
                // Cache post-activation gates for backward.
                g[k] = ig;
                g[h + k] = fg;
                g[2 * h + k] = gg;
                g[3 * h + k] = og;
                cprev[bi * h + k] = c;
                hprev[bi * h + k] = hv;
                out[(step * b + bi) * h + k] = hv;
            }
        }
        if (gates_cache != nullptr)
            gates_cache->insert(gates_cache->end(), gates.begin(), gates.end());
        if (cell_cache != nullptr)
            cell_cache->insert(cell_cache->end(), cprev.begin(), cprev.end());
    }
}

} // namespace

void
lstm_layer(const float* in, const float* w_ih, const float* w_hh, const float* bias,
           float* out, int64_t t, int64_t b, int64_t i, int64_t h)
{
    lstm_forward_impl(in, w_ih, w_hh, bias, out, t, b, i, h, nullptr, nullptr);
}

void
lstm_layer_backward(const float* grad_out, const float* in, const float* w_ih,
                    const float* w_hh, const float* bias, float* grad_in,
                    float* grad_w_ih, float* grad_w_hh, float* grad_bias, int64_t t,
                    int64_t b, int64_t i, int64_t h)
{
    std::vector<float> out(static_cast<std::size_t>(t * b * h));
    std::vector<float> gates; // per step: [b, 4h] post-activation
    std::vector<float> cells; // per step: [b, h]
    gates.reserve(static_cast<std::size_t>(t * b * 4 * h));
    cells.reserve(static_cast<std::size_t>(t * b * h));
    lstm_forward_impl(in, w_ih, w_hh, bias, out.data(), t, b, i, h, &gates, &cells);

    std::fill(grad_in, grad_in + t * b * i, 0.0f);
    std::fill(grad_w_ih, grad_w_ih + 4 * h * i, 0.0f);
    std::fill(grad_w_hh, grad_w_hh + 4 * h * h, 0.0f);
    if (grad_bias != nullptr)
        std::fill(grad_bias, grad_bias + 4 * h, 0.0f);

    std::vector<float> dh(static_cast<std::size_t>(b * h), 0.0f);
    std::vector<float> dc(static_cast<std::size_t>(b * h), 0.0f);
    std::vector<float> dgates(static_cast<std::size_t>(b * 4 * h));

    for (int64_t step = t - 1; step >= 0; --step) {
        const float* g = gates.data() + step * b * 4 * h;
        const float* c = cells.data() + step * b * h;
        const float* cm1 = step > 0 ? cells.data() + (step - 1) * b * h : nullptr;
        const float* hm1 = step > 0 ? out.data() + (step - 1) * b * h : nullptr;
        for (int64_t bi = 0; bi < b; ++bi) {
            for (int64_t k = 0; k < h; ++k) {
                const int64_t hk = bi * h + k;
                const float go = grad_out[(step * b + bi) * h + k] + dh[hk];
                const float ig = g[bi * 4 * h + k];
                const float fg = g[bi * 4 * h + h + k];
                const float gg = g[bi * 4 * h + 2 * h + k];
                const float og = g[bi * 4 * h + 3 * h + k];
                const float tc = std::tanh(c[hk]);
                const float dcv = go * og * (1.0f - tc * tc) + dc[hk];
                const float cprev = cm1 != nullptr ? cm1[hk] : 0.0f;
                dgates[bi * 4 * h + k] = dcv * gg * ig * (1.0f - ig);          // di
                dgates[bi * 4 * h + h + k] = dcv * cprev * fg * (1.0f - fg);   // df
                dgates[bi * 4 * h + 2 * h + k] = dcv * ig * (1.0f - gg * gg);  // dg
                dgates[bi * 4 * h + 3 * h + k] = go * tc * og * (1.0f - og);   // do
                dc[hk] = dcv * fg;
            }
        }
        // Propagate through the affine layers.
        std::fill(dh.begin(), dh.end(), 0.0f);
        const float* x = in + step * b * i;
        for (int64_t bi = 0; bi < b; ++bi) {
            for (int64_t gi = 0; gi < 4 * h; ++gi) {
                const float dg = dgates[bi * 4 * h + gi];
                if (grad_bias != nullptr)
                    grad_bias[gi] += dg;
                float* gwi = grad_w_ih + gi * i;
                for (int64_t k = 0; k < i; ++k) {
                    gwi[k] += dg * x[bi * i + k];
                    grad_in[(step * b + bi) * i + k] += dg * w_ih[gi * i + k];
                }
                if (hm1 != nullptr) {
                    float* gwh = grad_w_hh + gi * h;
                    for (int64_t k = 0; k < h; ++k) {
                        gwh[k] += dg * hm1[bi * h + k];
                        dh[bi * h + k] += dg * w_hh[gi * h + k];
                    }
                }
            }
        }
    }
}

void
randn(float* out, int64_t n, Rng& rng, float scale)
{
    for (int64_t idx = 0; idx < n; ++idx)
        out[idx] = static_cast<float>(rng.normal()) * scale;
}

} // namespace mystique::fw::math
