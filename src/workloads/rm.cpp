/// @file
/// RM (§6.2): "a leading edge multi-node, multi-GPU production recommendation
/// model ... the production implementation that the open-source DLRM
/// benchmark aims to approximate."
///
/// Structure (DLRM-style with production adaptations):
///  - dense features through a bottom MLP (with a torchrec jagged-feature
///    preprocessing custom op — unsupported by the replayer by default),
///  - embedding tables: half through aten::embedding_bag, half through one
///    FBGEMM batched lookup (a "common library" custom op the replayer
///    supports out of the box, §5),
///  - pairwise dot-product feature interaction (bmm),
///  - a gated top MLP using JIT-fused pointwise blocks (Fused category),
///  - BCE-with-logits loss.
/// Distributed runs shard tables across ranks (model parallel, all_to_all)
/// and wrap dense parameters in DDP (data parallel, bucketed all_reduce) —
/// the §6.6 configuration ("we adjust RM's parameters" at scale: the
/// per-rank table count shrinks as the world grows).

#include "workloads/workloads_impl.h"

namespace mystique::wl {

namespace {

struct Dims {
    int64_t batch;
    int64_t dense;
    int64_t emb_dim;
    int64_t tables;
    int64_t rows;
    int64_t pooling;
    int64_t bottom_hidden;
    int64_t top_hidden;
    double zipf_s;
    int64_t jagged_len;
};

Dims
dims_for(Preset preset)
{
    if (preset == Preset::kTiny)
        return {4, 8, 8, 4, 64, 4, 16, 16, 0.8, 2};
    return {4096, 256, 192, 24, 2000000, 64, 1024, 1024, 1.05, 4};
}

} // namespace

class Rm final : public Workload {
  public:
    explicit Rm(Preset preset) : dims_(dims_for(preset)) {}

    std::string name() const override { return "rm"; }

    void setup(fw::Session& s) override
    {
        world_ = s.options().world_size;
        // The paper "adjusts RM's parameters" for the large-scale runs
        // (§6.6): at high rank counts the per-rank table shard shrinks.
        if (world_ > 8 && dims_.rows > 500000)
            dims_.rows = 500000;
        // Model parallelism: this rank owns tables t with t % world == rank,
        // but never fewer than two per rank.
        local_tables_ = std::max<int64_t>(2, dims_.tables / world_);
        aten_tables_ = local_tables_ / 2;
        fbgemm_tables_ = local_tables_ - aten_tables_;

        for (int64_t t = 0; t < aten_tables_; ++t)
            emb_.emplace_back(s, dims_.rows, dims_.emb_dim);
        // FBGEMM: one stacked weight for the remaining tables.
        fbgemm_weights_ =
            fw::nn::make_parameter(s, {fbgemm_tables_ * dims_.rows, dims_.emb_dim}, 0.02f);

        const int64_t dense_in = dims_.dense + dims_.jagged_len;
        bottom_.emplace_back(s, dense_in, dims_.bottom_hidden);
        bottom_.emplace_back(s, dims_.bottom_hidden, dims_.bottom_hidden);
        bottom_.emplace_back(s, dims_.bottom_hidden, dims_.emb_dim);

        const int64_t f = local_tables_ + 1; // embeddings + dense vector
        // The custom interaction kernel emits [B, emb_dim + f*f].
        const int64_t interact_dim = dims_.emb_dim + f * f;
        // Gated top blocks: three parallel linears feeding a gating unit
        // (a production adaptation over open-source DLRM).  Only the last
        // block goes through the JIT fuser; the earlier ones execute the
        // gate as eager pointwise ops — sigmoid+mul+add+relu — so in the
        // production config the trace carries both the Fused (schemaless,
        // replay-skipped per §4.3.4) and the eager ATen form of the same
        // gating pattern.
        top_in_.emplace_back(s, interact_dim, dims_.top_hidden);
        top_gate_.emplace_back(s, interact_dim, dims_.top_hidden);
        top_skip_.emplace_back(s, interact_dim, dims_.top_hidden);
        top_in_.emplace_back(s, dims_.top_hidden, dims_.top_hidden);
        top_gate_.emplace_back(s, dims_.top_hidden, dims_.top_hidden);
        top_skip_.emplace_back(s, dims_.top_hidden, dims_.top_hidden);
        top_in_.emplace_back(s, dims_.top_hidden, dims_.top_hidden);
        top_gate_.emplace_back(s, dims_.top_hidden, dims_.top_hidden);
        top_skip_.emplace_back(s, dims_.top_hidden, dims_.top_hidden);
        top_out_ = std::make_unique<fw::nn::Linear>(s, dims_.top_hidden, 1);

        std::vector<fw::Tensor> dense_params;
        auto absorb = [&dense_params](const std::vector<fw::Tensor>& ps) {
            dense_params.insert(dense_params.end(), ps.begin(), ps.end());
        };
        for (auto& l : bottom_)
            absorb(l.parameters());
        for (std::size_t i = 0; i < top_in_.size(); ++i) {
            absorb(top_in_[i].parameters());
            absorb(top_gate_[i].parameters());
            absorb(top_skip_[i].parameters());
        }
        absorb(top_out_->parameters());

        // Embedding tables use a fused row-sparse update inside the backward
        // kernels (FBGEMM-style), so only dense parameters go through the
        // eager SGD op stream — as in the production RM.
        opt_ = std::make_unique<fw::nn::SGD>(dense_params, 0.01);
        if (world_ > 1) {
            // Finer buckets than the 25 MB default: several overlapping
            // all-reduces per backward, as the production RM config uses.
            ddp_ = std::make_unique<fw::nn::DistributedDataParallel>(s, dense_params, 0,
                                                                     4 * 1024 * 1024);
        }
    }

    void iteration(fw::Session& s, int iter) override
    {
        (void)iter;
        if (ddp_)
            ddp_->reset();
        const int64_t b = dims_.batch;

        // ---- inputs (dataloader side)
        fw::Tensor dense_host = host_float(s, {b, dims_.dense});
        fw::Tensor jagged_vals = host_float(s, {b * dims_.jagged_len / 2});
        fw::Tensor jagged_off = host_offsets(s, b, jagged_vals.numel());
        fw::Tensor targets_host = host_float_01(s, {b, 1});
        std::vector<fw::Tensor> idx_dev, off_dev;
        for (int64_t t = 0; t < aten_tables_; ++t) {
            fw::Tensor idx = host_indices(s, b * dims_.pooling, dims_.rows, dims_.zipf_s);
            fw::Tensor off = host_offsets(s, b, idx.numel());
            idx_dev.push_back(fw::F::to_device(s, idx));
            off_dev.push_back(fw::F::to_device(s, off));
        }
        // FBGEMM stacked lookup: absolute row offsets per table.
        fw::Tensor fb_idx = fw::Tensor::create({fbgemm_tables_ * b * dims_.pooling},
                                               fw::DType::kInt64, true);
        fb_idx.impl()->device = "cpu";
        const int64_t per_table = b * dims_.pooling;
        for (int64_t t = 0; t < fbgemm_tables_; ++t) {
            int64_t* slice = fb_idx.i64() + t * per_table;
            s.rng().zipf_fill(slice, per_table, dims_.rows, dims_.zipf_s);
            for (int64_t i = 0; i < per_table; ++i)
                slice[i] += t * dims_.rows;
        }
        fw::Tensor fb_off = host_offsets(s, fbgemm_tables_ * b, fb_idx.numel());
        fw::Tensor fb_idx_d = fw::F::to_device(s, fb_idx);
        fw::Tensor fb_off_d = fw::F::to_device(s, fb_off);
        fw::Tensor dense_d = fw::F::to_device(s, dense_host);
        fw::Tensor jv_d = fw::F::to_device(s, jagged_vals);
        fw::Tensor jo_d = fw::F::to_device(s, jagged_off);
        fw::Tensor y = fw::F::to_device(s, targets_host);

        // ---- dense path
        fw::Tensor bottom_out;
        {
            fw::RecordFunction rf(s, "## forward:dense ##");
            fw::Tensor jagged = s.call_t(MYST_OP("torchrec::jagged_to_padded_dense"),
                                         {fw::IValue(jv_d), fw::IValue(jo_d),
                                          fw::IValue(dims_.jagged_len)});
            fw::Tensor x = fw::F::cat(s, {dense_d, jagged}, 1);
            for (std::size_t i = 0; i < bottom_.size(); ++i) {
                x = bottom_[i].forward(s, x);
                x = fw::F::relu(s, x);
            }
            bottom_out = x; // [B, emb_dim]
        }

        // ---- sparse path
        std::vector<fw::Tensor> features{bottom_out};
        {
            fw::RecordFunction rf(s, "## forward:sparse ##");
            for (int64_t t = 0; t < aten_tables_; ++t)
                features.push_back(emb_[static_cast<std::size_t>(t)].forward(
                    s, idx_dev[static_cast<std::size_t>(t)],
                    off_dev[static_cast<std::size_t>(t)]));
            fw::Tensor fb = s.call_t(MYST_OP("fbgemm::batched_embedding_lookup"),
                                     {fw::IValue(fbgemm_weights_), fw::IValue(fb_idx_d),
                                      fw::IValue(fb_off_d), fw::IValue(fbgemm_tables_)});
            // [B, fbgemm_tables*dim] → per-table features
            for (int64_t t = 0; t < fbgemm_tables_; ++t)
                features.push_back(s.call_t(
                    MYST_OP("aten::narrow"), {fw::IValue(fb), fw::IValue(static_cast<int64_t>(1)),
                                     fw::IValue(t * dims_.emb_dim),
                                     fw::IValue(dims_.emb_dim)}));
            if (world_ > 1) {
                // Model-parallel exchange: the pooled embeddings are packed,
                // exchanged across ranks, and the interaction consumes the
                // *exchanged* features — so downstream compute genuinely
                // depends on the all_to_all (exposed comm when not hidden).
                std::vector<fw::Tensor> sparse_only(features.begin() + 1,
                                                    features.end());
                fw::Tensor packed = fw::F::cat(s, sparse_only, 1);
                fw::Tensor exchanged = fw::F::all_to_all(s, packed, 0);
                features.resize(1);
                for (int64_t t = 0; t < local_tables_; ++t)
                    features.push_back(s.call_t(
                        MYST_OP("aten::narrow"),
                        {fw::IValue(exchanged), fw::IValue(static_cast<int64_t>(1)),
                         fw::IValue(t * dims_.emb_dim), fw::IValue(dims_.emb_dim)}));
            }
        }

        // ---- interaction + top MLP
        fw::Tensor logits;
        {
            fw::RecordFunction rf(s, "## forward:z ##");
            // Production fused interaction kernel (custom op — not in the
            // replayer's default registry).
            std::vector<fw::Tensor> sparse(features.begin() + 1, features.end());
            fw::Tensor x = s.call_t(MYST_OP("meta::interaction_arch"),
                                    {fw::IValue(bottom_out), fw::IValue(sparse)});
            for (std::size_t i = 0; i < top_in_.size(); ++i) {
                fw::Tensor h = top_in_[i].forward(s, x);
                fw::Tensor g = top_gate_[i].forward(s, x);
                fw::Tensor skip = top_skip_[i].forward(s, x);
                if (i + 1 < top_in_.size()) {
                    // Eager sigmoid gate: the fuser bails on these blocks.
                    fw::Tensor gate = fw::F::sigmoid(s, g);
                    x = fw::F::mul(s, gate, h);
                    x = fw::F::add(s, x, skip);
                    x = fw::F::relu(s, x);
                } else {
                    x = fw::fused_mul_add_relu(s, h, g, skip);
                }
            }
            logits = top_out_->forward(s, x);
        }

        fw::Tensor loss = fw::F::bce_with_logits(s, logits, y);
        s.backward(loss);
        if (ddp_)
            ddp_->wait_all(s); // gradients must be averaged before the update
        opt_->step(s);
        opt_->zero_grad();
    }

  private:
    static void absorb_into(std::vector<fw::Tensor>& dst, const std::vector<fw::Tensor>& src)
    {
        dst.insert(dst.end(), src.begin(), src.end());
    }

    Dims dims_;
    int world_ = 1;
    int64_t local_tables_ = 0;
    int64_t aten_tables_ = 0;
    int64_t fbgemm_tables_ = 0;
    std::vector<fw::nn::EmbeddingBag> emb_;
    fw::Tensor fbgemm_weights_;
    std::vector<fw::nn::Linear> bottom_;
    std::vector<fw::nn::Linear> top_in_;
    std::vector<fw::nn::Linear> top_gate_;
    std::vector<fw::nn::Linear> top_skip_;
    std::unique_ptr<fw::nn::Linear> top_out_;
    std::unique_ptr<fw::nn::SGD> opt_;
    std::unique_ptr<fw::nn::DistributedDataParallel> ddp_;
};

std::unique_ptr<Workload>
make_rm(const WorkloadOptions& opts)
{
    return std::make_unique<Rm>(opts.preset);
}

} // namespace mystique::wl
