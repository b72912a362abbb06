#pragma once

/// @file
/// KernelDesc builders shared by operator implementations.
///
/// Kernel names are deterministic functions of the op family and shapes, so
/// the same logical kernel gets the same name in original and replay runs —
/// which is what lets Figure 6 compare per-kernel metrics by name.

#include <cstdint>
#include <cstring>
#include <string>

#include "common/string_util.h"
#include "device/kernel.h"
#include "framework/tensor.h"

namespace mystique::fw {

/// Zeroes a tensor's backing bytes when it has any.  Ops whose outputs must
/// read as zeros (aten::zeros, out-of-place collectives) call this instead
/// of relying on allocation: recycled StorageArena buffers are not zeroed.
inline void
zero_fill(const Tensor& t)
{
    if (t.defined() && t.materialized() && t.nbytes() > 0)
        std::memset(t.impl()->storage->data(), 0, static_cast<std::size_t>(t.nbytes()));
}

inline dev::KernelDesc
gemm_kernel(int64_t m, int64_t k, int64_t n, int64_t batch = 1,
            dev::OpCategory cat = dev::OpCategory::kATen)
{
    dev::KernelDesc d;
    d.name = batch > 1 ? strprintf("sgemm_b%lld_%lldx%lldx%lld", static_cast<long long>(batch),
                                   static_cast<long long>(m), static_cast<long long>(n),
                                   static_cast<long long>(k))
                       : strprintf("sgemm_%lldx%lldx%lld", static_cast<long long>(m),
                                   static_cast<long long>(n), static_cast<long long>(k));
    d.kind = dev::KernelKind::kGemm;
    d.category = cat;
    d.flops = 2.0 * static_cast<double>(batch) * static_cast<double>(m) *
              static_cast<double>(k) * static_cast<double>(n);
    d.bytes = 4.0 * static_cast<double>(batch) *
              (static_cast<double>(m * k) + static_cast<double>(k * n) +
               static_cast<double>(m * n));
    d.working_set_bytes = d.bytes;
    d.locality = 0.85;
    d.parallelism = static_cast<double>(batch * m * n);
    return d;
}

inline dev::KernelDesc
pointwise_kernel(const std::string& family, int64_t numel, int n_inputs,
                 double flops_per_elem = 1.0,
                 dev::OpCategory cat = dev::OpCategory::kATen)
{
    dev::KernelDesc d;
    d.name = strprintf("vectorized_elementwise_%s_%lld", family.c_str(),
                       static_cast<long long>(numel));
    d.kind = dev::KernelKind::kPointwise;
    d.category = cat;
    d.flops = flops_per_elem * static_cast<double>(numel);
    d.bytes = 4.0 * static_cast<double>(numel) * (n_inputs + 1);
    d.working_set_bytes = d.bytes;
    d.locality = 0.92;
    d.parallelism = static_cast<double>(numel);
    return d;
}

inline dev::KernelDesc
reduction_kernel(const std::string& family, int64_t numel_in, int64_t numel_out)
{
    dev::KernelDesc d;
    d.name = strprintf("reduce_%s_%lld", family.c_str(), static_cast<long long>(numel_in));
    d.kind = dev::KernelKind::kReduction;
    d.flops = static_cast<double>(numel_in);
    d.bytes = 4.0 * static_cast<double>(numel_in + numel_out);
    d.working_set_bytes = d.bytes;
    d.locality = 0.9;
    d.parallelism = static_cast<double>(numel_in);
    return d;
}

inline dev::KernelDesc
conv_kernel(const std::string& tag, int64_t n, int64_t c, int64_t f, int64_t kh,
            int64_t kw, int64_t oh, int64_t ow, double bytes)
{
    dev::KernelDesc d;
    d.name = strprintf("implicit_gemm_%s_n%lld_c%lld_f%lld_k%lldx%lld_o%lldx%lld",
                       tag.c_str(), static_cast<long long>(n), static_cast<long long>(c),
                       static_cast<long long>(f), static_cast<long long>(kh),
                       static_cast<long long>(kw), static_cast<long long>(oh),
                       static_cast<long long>(ow));
    d.kind = dev::KernelKind::kConv;
    d.flops = 2.0 * static_cast<double>(n) * static_cast<double>(f) *
              static_cast<double>(oh) * static_cast<double>(ow) * static_cast<double>(c) *
              static_cast<double>(kh) * static_cast<double>(kw);
    d.bytes = bytes;
    d.working_set_bytes = bytes;
    d.locality = 0.8;
    d.parallelism = static_cast<double>(n * f * oh * ow);
    return d;
}

inline dev::KernelDesc
norm_kernel(const std::string& family, int64_t numel, double flops_per_elem = 8.0)
{
    dev::KernelDesc d;
    d.name = strprintf("%s_%lld", family.c_str(), static_cast<long long>(numel));
    d.kind = dev::KernelKind::kNorm;
    d.flops = flops_per_elem * static_cast<double>(numel);
    d.bytes = 4.0 * 3.0 * static_cast<double>(numel);
    d.working_set_bytes = d.bytes;
    d.locality = 0.85;
    d.parallelism = static_cast<double>(numel);
    return d;
}

inline dev::KernelDesc
pool_kernel(const std::string& family, int64_t numel_in, int64_t numel_out, int64_t k)
{
    dev::KernelDesc d;
    d.name = strprintf("%s_%lld", family.c_str(), static_cast<long long>(numel_in));
    d.kind = dev::KernelKind::kPool;
    d.flops = static_cast<double>(numel_out) * static_cast<double>(k * k);
    d.bytes = 4.0 * static_cast<double>(numel_in + numel_out);
    d.working_set_bytes = d.bytes;
    d.locality = 0.85;
    d.parallelism = static_cast<double>(numel_out);
    return d;
}

inline dev::KernelDesc
softmax_kernel(const std::string& family, int64_t numel)
{
    dev::KernelDesc d;
    d.name = strprintf("%s_%lld", family.c_str(), static_cast<long long>(numel));
    d.kind = dev::KernelKind::kSoftmax;
    d.flops = 5.0 * static_cast<double>(numel);
    d.bytes = 4.0 * 2.0 * static_cast<double>(numel);
    d.working_set_bytes = d.bytes;
    d.locality = 0.9;
    d.parallelism = static_cast<double>(numel);
    return d;
}

inline dev::KernelDesc
loss_kernel(const std::string& family, int64_t numel)
{
    dev::KernelDesc d;
    d.name = strprintf("%s_%lld", family.c_str(), static_cast<long long>(numel));
    d.kind = dev::KernelKind::kLoss;
    d.flops = 6.0 * static_cast<double>(numel);
    d.bytes = 4.0 * 2.0 * static_cast<double>(numel);
    d.working_set_bytes = d.bytes;
    d.locality = 0.9;
    d.parallelism = static_cast<double>(numel);
    return d;
}

inline dev::KernelDesc
memcpy_kernel(int64_t bytes)
{
    dev::KernelDesc d;
    d.name = strprintf("memcpy_h2d_%lld", static_cast<long long>(bytes));
    d.kind = dev::KernelKind::kMemcpy;
    d.flops = 0.0;
    d.bytes = static_cast<double>(bytes);
    d.working_set_bytes = static_cast<double>(bytes);
    d.locality = 1.0;
    d.parallelism = static_cast<double>(bytes / 4);
    return d;
}

/// Embedding gather; locality derived from the actual index distribution —
/// the paper's value-dependent special case (§4.4).
inline dev::KernelDesc
embedding_kernel(const std::string& family, int64_t nnz, int64_t dim, int64_t unique_rows,
                 double locality, dev::OpCategory cat = dev::OpCategory::kATen)
{
    dev::KernelDesc d;
    d.name = strprintf("%s_nnz%lld_d%lld", family.c_str(), static_cast<long long>(nnz),
                       static_cast<long long>(dim));
    d.kind = dev::KernelKind::kEmbedding;
    d.category = cat;
    d.flops = static_cast<double>(nnz) * static_cast<double>(dim);
    d.bytes = 4.0 * static_cast<double>(nnz) * static_cast<double>(dim);
    d.working_set_bytes = 4.0 * static_cast<double>(unique_rows) * static_cast<double>(dim);
    d.locality = locality;
    d.parallelism = static_cast<double>(nnz * dim);
    return d;
}

inline dev::KernelDesc
comm_kernel(const std::string& coll_name, double bytes)
{
    dev::KernelDesc d;
    d.name = strprintf("nccl_%s_%lld", coll_name.c_str(), static_cast<long long>(bytes));
    d.kind = dev::KernelKind::kComm;
    d.category = dev::OpCategory::kComm;
    d.flops = 0.0;
    d.bytes = bytes;
    d.working_set_bytes = bytes;
    d.locality = 1.0;
    d.parallelism = bytes / 4.0;
    return d;
}

inline dev::KernelDesc
lstm_kernel(const std::string& tag, int64_t t, int64_t b, int64_t in_dim, int64_t h,
            double flop_scale = 1.0)
{
    dev::KernelDesc d;
    d.name = strprintf("lstm_%s_t%lld_b%lld_h%lld", tag.c_str(), static_cast<long long>(t),
                       static_cast<long long>(b), static_cast<long long>(h));
    d.kind = dev::KernelKind::kLstm;
    d.category = dev::OpCategory::kCustom;
    d.flops = flop_scale * 2.0 * static_cast<double>(t) * static_cast<double>(b) *
              static_cast<double>(4 * h) * static_cast<double>(in_dim + h);
    d.bytes = 4.0 * (static_cast<double>(4 * h * (in_dim + h)) +
                     static_cast<double>(t * b * (in_dim + 5 * h)));
    d.working_set_bytes = d.bytes;
    d.locality = 0.8;
    d.parallelism = static_cast<double>(b * h);
    return d;
}

} // namespace mystique::fw
