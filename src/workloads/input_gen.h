#pragma once

/// @file
/// Input generation helpers shared by the workloads.
///
/// Inputs model a data-loader: host-side tensors created outside the traced
/// op stream (as real dataloaders do), then moved to the device through
/// aten::to.device on the memcpy stream.  Index tensors are materialized in
/// every execution mode because their values feed the embedding locality
/// model (§4.4).

#include "framework/functional.h"
#include "framework/math.h"
#include "framework/session.h"

namespace mystique::wl {

/// Host float tensor (materialized only in numeric mode).
inline fw::Tensor
host_float(fw::Session& s, fw::Shape shape)
{
    fw::Tensor t = fw::Tensor::create(std::move(shape), fw::DType::kFloat32, s.numeric());
    t.impl()->device = "cpu";
    if (s.numeric())
        fw::math::randn(t.f32(), t.numel(), s.rng(), 1.0f);
    return t;
}

/// Host float tensor with values in [0,1) (targets for BCE).
inline fw::Tensor
host_float_01(fw::Session& s, fw::Shape shape)
{
    fw::Tensor t = fw::Tensor::create(std::move(shape), fw::DType::kFloat32, s.numeric());
    t.impl()->device = "cpu";
    if (s.numeric()) {
        for (int64_t i = 0; i < t.numel(); ++i)
            t.f32()[i] = static_cast<float>(s.rng().uniform());
    }
    return t;
}

/// Host int64 class labels in [0, classes).
inline fw::Tensor
host_labels(fw::Session& s, int64_t n, int64_t classes)
{
    fw::Tensor t = fw::Tensor::create({n}, fw::DType::kInt64, true);
    t.impl()->device = "cpu";
    for (int64_t i = 0; i < n; ++i)
        t.i64()[i] = s.rng().uniform_int(0, classes - 1);
    return t;
}

/// Host int64 embedding indices drawn from a Zipf distribution (production
/// lookups are heavily skewed; this is what the replayer's default uniform
/// generation slightly mis-models until refined, §4.4).
inline fw::Tensor
host_indices(fw::Session& s, int64_t nnz, int64_t rows, double zipf_s = 1.05)
{
    fw::Tensor t = fw::Tensor::create({nnz}, fw::DType::kInt64, true);
    t.impl()->device = "cpu";
    s.rng().zipf_fill(t.i64(), nnz, rows, zipf_s);
    return t;
}

/// Host int64 bag offsets: @p bags evenly-sized bags over @p nnz indices.
inline fw::Tensor
host_offsets(fw::Session& s, int64_t bags, int64_t nnz)
{
    (void)s;
    fw::Tensor t = fw::Tensor::create({bags}, fw::DType::kInt64, true);
    t.impl()->device = "cpu";
    for (int64_t i = 0; i < bags; ++i)
        t.i64()[i] = i * nnz / bags;
    return t;
}

} // namespace mystique::wl
