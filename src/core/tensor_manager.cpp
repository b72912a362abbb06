#include "core/tensor_manager.h"

#include <algorithm>

#include "common/error.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "framework/math.h"
#include "framework/op_registry.h"

namespace mystique::core {

TensorManager::TensorManager(fw::Session& session, EmbeddingGenConfig config)
    : session_(session), config_(config)
{
}

namespace {

/// Extracts the table row count for an embedding op from the weight arg.
int64_t
weight_rows(const et::Node& node)
{
    if (node.inputs.empty() || node.inputs[0].kind != et::Argument::Kind::kTensor)
        return 0;
    const auto& shape = node.inputs[0].tensors[0].shape;
    return shape.empty() ? 0 : shape[0];
}

} // namespace

void
TensorManager::analyze(const std::vector<const et::Node*>& selected_ops)
{
    // Pass 1: classify by first appearance, walking execution order (§4.4).
    auto note_input = [&](const et::TensorMeta& m) {
        if (intermediates_.count(m.tensor_id) == 0 && externals_.count(m.tensor_id) == 0)
            externals_[m.tensor_id] = m;
    };
    auto note_output = [&](const et::TensorMeta& m) {
        if (externals_.count(m.tensor_id) == 0)
            intermediates_[m.tensor_id] = true;
    };
    for (const et::Node* node : selected_ops) {
        for (const auto& arg : node->inputs)
            for (const auto& t : arg.tensors)
                note_input(t);
        for (const auto& arg : node->outputs)
            for (const auto& t : arg.tensors)
                note_output(t);
    }

    // Pass 2: derive int64 generation policies from consuming ops.  Policies
    // must land on the *external* source tensor, so they propagate backwards
    // through pass-through copy ops (the dataloader→device transfer chain:
    // host indices → aten::to.device → device indices → embedding_bag).
    std::map<int64_t, const et::Node*> producer;
    for (const et::Node* node : selected_ops) {
        for (const auto& arg : node->outputs)
            for (const auto& t : arg.tensors)
                producer[t.tensor_id] = node;
    }
    auto set_policy = [&](const et::Argument& arg, Int64GenPolicy policy) {
        if (arg.kind != et::Argument::Kind::kTensor)
            return;
        int64_t uid = arg.tensors[0].tensor_id;
        for (int hops = 0; hops < 8; ++hops) {
            if (externals_.count(uid) != 0) {
                policies_[uid] = policy;
                return;
            }
            auto it = producer.find(uid);
            if (it == producer.end())
                return;
            const et::Node* p = it->second;
            // Interned-identity comparison: each node's name resolves at most
            // once (cached in node.op_id); MYST_OP resolves the literal once
            // per call site.
            const OpId pid = et::resolve_op_id(*p);
            const bool pass_through =
                pid == MYST_OP("aten::to.device") || pid == MYST_OP("aten::copy_");
            if (!pass_through || p->inputs.empty() || p->inputs[0].tensors.empty())
                return;
            uid = p->inputs[0].tensors[0].tensor_id;
        }
    };
    for (const et::Node* node : selected_ops) {
        const OpId id = et::resolve_op_id(*node);
        if (id == MYST_OP("aten::embedding_bag") ||
            id == MYST_OP("fbgemm::batched_embedding_lookup")) {
            const int64_t rows = weight_rows(*node);
            int64_t nnz = 0;
            if (node->inputs.size() > 1 && !node->inputs[1].tensors.empty())
                nnz = node->inputs[1].tensors[0].numel;
            set_policy(node->inputs[1],
                       {Int64GenPolicy::Kind::kIndices, std::max<int64_t>(rows, 1), 0});
            if (node->inputs.size() > 2)
                set_policy(node->inputs[2], {Int64GenPolicy::Kind::kOffsets, 0, nnz});
        } else if (id == MYST_OP("aten::nll_loss")) {
            int64_t classes = 10;
            if (!node->inputs.empty() && !node->inputs[0].tensors.empty() &&
                !node->inputs[0].tensors[0].shape.empty())
                classes = node->inputs[0].tensors[0].shape.back();
            set_policy(node->inputs[1], {Int64GenPolicy::Kind::kClasses, classes, 0});
        }
    }
}

fw::Tensor
TensorManager::generate_external(const et::TensorMeta& meta)
{
    const fw::DType dtype = fw::dtype_from_name(meta.dtype);
    fw::Tensor t = session_.alloc(meta.shape, dtype, /*force_materialize=*/
                                  dtype != fw::DType::kFloat32);
    if (dtype == fw::DType::kFloat32) {
        // Random values: operator performance does not depend on float
        // contents (§4.4), but numeric mode still wants sane data.
        if (t.materialized())
            fw::math::randn(t.f32(), t.numel(), session_.rng(), 0.05f);
        return t;
    }
    if (dtype != fw::DType::kInt64)
        return t;

    Int64GenPolicy policy;
    auto it = policies_.find(meta.tensor_id);
    if (it != policies_.end())
        policy = it->second;

    int64_t* data = t.i64();
    const int64_t n = t.numel();
    switch (policy.kind) {
      case Int64GenPolicy::Kind::kIndices: {
        const int64_t rows = std::max<int64_t>(policy.upper, 1);
        if (config_.distribution == EmbeddingGenConfig::Distribution::kZipf) {
            session_.rng().zipf_fill(data, n, rows, config_.zipf_s);
            break;
        }
        for (int64_t i = 0; i < n; ++i)
            data[i] = session_.rng().uniform_int(0, rows - 1);
        break;
      }
      case Int64GenPolicy::Kind::kOffsets: {
        // Evenly spaced bag boundaries over the paired index tensor.
        const int64_t nnz = std::max<int64_t>(policy.pair_nnz, n);
        for (int64_t i = 0; i < n; ++i)
            data[i] = i * nnz / n;
        break;
      }
      case Int64GenPolicy::Kind::kClasses: {
        const int64_t classes = std::max<int64_t>(policy.upper, 1);
        for (int64_t i = 0; i < n; ++i)
            data[i] = session_.rng().uniform_int(0, classes - 1);
        break;
      }
      case Int64GenPolicy::Kind::kGeneric:
        for (int64_t i = 0; i < n; ++i)
            data[i] = session_.rng().uniform_int(0, std::max<int64_t>(policy.upper - 1, 0));
        break;
    }
    return t;
}

void
TensorManager::instantiate_externals()
{
    for (const auto& [uid, meta] : externals_) {
        if (bindings_.count(uid) == 0)
            bindings_[uid] = generate_external(meta);
    }
}

fw::Tensor
TensorManager::resolve(const et::TensorMeta& meta) const
{
    auto it = bindings_.find(meta.tensor_id);
    if (it == bindings_.end())
        MYST_THROW(ReplayError, "tensor " << meta.tensor_id
                                          << " consumed before production during replay");
    return it->second;
}

void
TensorManager::bind_output(const et::TensorMeta& meta, fw::Tensor t)
{
    bindings_[meta.tensor_id] = std::move(t);
}

uint64_t
TensorManager::digest() const
{
    Fnv1a h;
    for (const auto& [uid, t] : bindings_) {
        h.mix_pod(uid);
        if (!t.defined() || !t.materialized()) {
            h.mix_pod(static_cast<int64_t>(-1)); // shape-only binding
            continue;
        }
        h.mix_pod(t.numel());
        h.mix_bytes(t.impl()->storage->data(), static_cast<std::size_t>(t.nbytes()));
    }
    return h.value();
}

} // namespace mystique::core
