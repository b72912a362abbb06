#pragma once

/// @file
/// Raw numeric routines backing the operator implementations.
///
/// Plain, correctness-first CPU implementations (the performance of a run is
/// decided by the device model, never by host math speed).  All buffers are
/// contiguous row-major.

#include <cstdint>

#include "common/rng.h"

namespace mystique::fw::math {

/// C[M,N] = alpha * A[M,K] @ B[K,N] + beta * C.  beta == 0 overwrites C
/// without reading it (BLAS convention) so C may be uninitialized / recycled
/// arena storage; inner loops are k-panel blocked for vectorization.
void gemm(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
          float alpha = 1.0f, float beta = 0.0f);

/// Batched GEMM over leading dimension; each batch dispatches through the
/// blocked gemm kernel above.
void bmm(const float* a, const float* b, float* c, int64_t batch, int64_t m, int64_t k,
         int64_t n);

/// Layer norm over the last dimension of [rows, cols], affine.
void layer_norm(const float* in, const float* gamma, const float* beta, float* out,
                int64_t rows, int64_t cols, float eps);
void layer_norm_backward(const float* grad_out, const float* in, const float* gamma,
                         float* grad_in, float* grad_gamma, float* grad_beta,
                         int64_t rows, int64_t cols, float eps);

/// Transpose a [rows, cols] matrix into [cols, rows].
void transpose2d(const float* a, float* out, int64_t rows, int64_t cols);

double sum(const float* a, int64_t n);
/// Sum over axis 0 of an [outer, inner] view: out[inner].
void sum_axis0(const float* a, float* out, int64_t outer, int64_t inner);

/// 2D convolution, NCHW input, FCHW weight, OH/OW from stride & padding.
void conv2d(const float* in, const float* w, const float* bias, float* out, int64_t n,
            int64_t c, int64_t h, int64_t wd, int64_t f, int64_t kh, int64_t kw,
            int64_t stride, int64_t pad);
void conv2d_backward(const float* grad_out, const float* in, const float* w,
                     float* grad_in, float* grad_w, float* grad_b, int64_t n, int64_t c,
                     int64_t h, int64_t wd, int64_t f, int64_t kh, int64_t kw,
                     int64_t stride, int64_t pad);

/// Per-channel training statistics of an NCHW batch, accumulated in double:
/// mean[c] and inv_std[c] = 1 / sqrt(var + eps), both rounded to float.
void batch_norm_stats(const float* in, int64_t n, int64_t c, int64_t spatial, float eps,
                      float* mean, float* inv_std);
/// Batch norm over NCHW (training statistics), affine.
void batch_norm(const float* in, const float* gamma, const float* beta, float* out,
                int64_t n, int64_t c, int64_t spatial, float eps);
void batch_norm_backward(const float* grad_out, const float* in, const float* gamma,
                         float* grad_in, float* grad_gamma, float* grad_beta, int64_t n,
                         int64_t c, int64_t spatial, float eps);

void max_pool2d(const float* in, float* out, int64_t n, int64_t c, int64_t h, int64_t w,
                int64_t k, int64_t stride, int64_t pad);
void max_pool2d_backward(const float* grad_out, const float* in, float* grad_in,
                         int64_t n, int64_t c, int64_t h, int64_t w, int64_t k,
                         int64_t stride, int64_t pad);

/// Adaptive average pool to output size (oh, ow).
void adaptive_avg_pool2d(const float* in, float* out, int64_t n, int64_t c, int64_t h,
                         int64_t w, int64_t oh, int64_t ow);
void adaptive_avg_pool2d_backward(const float* grad_out, float* grad_in, int64_t n,
                                  int64_t c, int64_t h, int64_t w, int64_t oh,
                                  int64_t ow);

/// Row-wise (log-)softmax over the last dimension of [rows, cols].
void softmax(const float* in, float* out, int64_t rows, int64_t cols);
void log_softmax(const float* in, float* out, int64_t rows, int64_t cols);
void log_softmax_backward(const float* grad, const float* output, float* out,
                          int64_t rows, int64_t cols);

/// Mean-reduced NLL loss over [rows, cols] log-probabilities.
double nll_loss(const float* logp, const int64_t* target, int64_t rows, int64_t cols);
void nll_loss_backward(float grad, const int64_t* target, float* out, int64_t rows,
                       int64_t cols);

/// Mean-reduced BCE-with-logits over n elements.
double bce_with_logits(const float* logits, const float* target, int64_t n);
void bce_with_logits_backward(float grad, const float* logits, const float* target,
                              float* out, int64_t n);

/// Sum-mode embedding bag: weight [rows, dim], indices [nnz], offsets [bags].
void embedding_bag(const float* weight, const int64_t* indices, const int64_t* offsets,
                   float* out, int64_t nnz, int64_t bags, int64_t dim);
/// Zero-fills grad_weight [rows, dim] before scattering (outputs may be
/// recycled, uninitialized arena storage).
void embedding_bag_backward(const float* grad_out, const int64_t* indices,
                            const int64_t* offsets, float* grad_weight, int64_t rows,
                            int64_t nnz, int64_t bags, int64_t dim);

/// Single LSTM layer forward: input [T,B,I] → output [T,B,H] (h/c start at 0).
/// w_ih [4H,I], w_hh [4H,H], bias [4H]; gate order (i, f, g, o).
void lstm_layer(const float* in, const float* w_ih, const float* w_hh, const float* bias,
                float* out, int64_t t, int64_t b, int64_t i, int64_t h);
/// Full BPTT (recomputes forward activations internally).
void lstm_layer_backward(const float* grad_out, const float* in, const float* w_ih,
                         const float* w_hh, const float* bias, float* grad_in,
                         float* grad_w_ih, float* grad_w_hh, float* grad_bias, int64_t t,
                         int64_t b, int64_t i, int64_t h);

/// Fills with iid N(0, scale).
void randn(float* out, int64_t n, Rng& rng, float scale = 1.0f);

} // namespace mystique::fw::math
