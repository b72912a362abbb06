#include "core/plan_optimizer.h"

#include <algorithm>
#include <chrono>

#include "common/error.h"
#include "framework/op_registry.h"
#include "framework/pointwise.h"

namespace mystique::core {

namespace {

/// Interned identity of a reconstructed op (plan-build resolves it from the
/// node's OpIdCache; fall back to the node for restored plans).
inline OpId
op_identity(const ReconstructedOp& op)
{
    return op.op_id != kInvalidOpId ? op.op_id : et::resolve_op_id(*op.node);
}

inline bool
is_f32_meta(const et::TensorMeta& m)
{
    return m.dtype == "float32" && m.itemsize == 4 && m.numel > 0;
}

/// Extracts the recorded scalar at input slot @p slot; nullopt when absent
/// or not numeric.
std::optional<double>
scalar_arg(const et::Node& node, std::size_t slot)
{
    if (node.inputs.size() <= slot)
        return std::nullopt;
    const et::Argument& a = node.inputs[slot];
    if (a.kind == et::Argument::Kind::kDouble)
        return a.double_value;
    if (a.kind == et::Argument::Kind::kInt)
        return static_cast<double>(a.int_value);
    return std::nullopt;
}

/// Single place for fusion legality (tentpole contract).  Returns the
/// pointwise table row (framework/pointwise.h) when @p op can be a
/// fused-chain member: a compiled-IR op with a row, one float32 tensor
/// output, a float32 slot-0 tensor input of the same numel (the chain
/// value), the scalar/operand arguments its row's argument kind names, and
/// no extra host cost that per-member dispatch replication would miss.
const fw::PointwiseInfo*
fusable_info(const ReconstructedOp& op)
{
    if (op.kind != ReconstructedOp::Kind::kCompiledIr || op.node == nullptr)
        return nullptr;
    const OpId id = op_identity(op);
    const fw::PointwiseInfo* info = fw::fused_kernel_info(id);
    if (info == nullptr)
        return nullptr;
    const fw::OpDef* def = fw::OpRegistry::instance().find(id);
    if (def == nullptr || def->extra_cpu_us != 0.0)
        return nullptr;

    const et::Node& node = *op.node;
    if (node.outputs.size() != 1 ||
        node.outputs[0].kind != et::Argument::Kind::kTensor ||
        node.outputs[0].tensors.size() != 1 || !is_f32_meta(node.outputs[0].tensors[0]))
        return nullptr;
    if (node.inputs.empty() || node.inputs[0].kind != et::Argument::Kind::kTensor ||
        node.inputs[0].tensors.size() != 1 || !is_f32_meta(node.inputs[0].tensors[0]))
        return nullptr;
    // Pointwise: the chain value flows through slot 0 at constant numel.
    if (node.inputs[0].tensors[0].numel != node.outputs[0].tensors[0].numel)
        return nullptr;

    if (info->args == fw::PointwiseArgs::kNormHead) {
        // batch_norm head: NCHW input, defined per-channel gamma/beta, and a
        // recorded eps — the stage recomputes batch stats, so everything it
        // reads must be resolvable.
        const et::TensorMeta& im = node.inputs[0].tensors[0];
        if (im.shape.size() != 4 || im.shape[1] <= 0 ||
            im.shape[2] * im.shape[3] <= 0)
            return nullptr;
        const int64_t channels = im.shape[1];
        for (std::size_t slot = 1; slot <= 2; ++slot) {
            if (node.inputs.size() <= slot ||
                node.inputs[slot].kind != et::Argument::Kind::kTensor ||
                node.inputs[slot].tensors.size() != 1 ||
                !is_f32_meta(node.inputs[slot].tensors[0]) ||
                node.inputs[slot].tensors[0].numel != channels)
                return nullptr;
        }
    } else if (info->tensor_operand()) {
        if (node.inputs.size() < 2 || node.inputs[1].kind != et::Argument::Kind::kTensor ||
            node.inputs[1].tensors.size() != 1 ||
            !is_f32_meta(node.inputs[1].tensors[0]))
            return nullptr;
        const int64_t bn = node.inputs[1].tensors[0].numel;
        const int64_t n = node.inputs[0].tensors[0].numel;
        if (bn != n && !(info->broadcasts() && bn > 0 && n % bn == 0))
            return nullptr;
    }
    const int slot = info->scalar_slot();
    if (slot > 0 && !scalar_arg(node, static_cast<std::size_t>(slot)).has_value())
        return nullptr;
    return info;
}

inline int64_t
output_tensor_id(const ReconstructedOp& op)
{
    return op.node->outputs[0].tensors[0].tensor_id;
}

inline int
count_of(const ConsumerCounts& counts, int64_t tensor_id)
{
    const int* n = counts.find(tensor_id);
    return n == nullptr ? 0 : *n;
}

} // namespace

/// Counts how many times each tensor id appears as an input of a
/// non-skipped op (every slot, tensor lists included).
ConsumerCounts
consumer_counts(const std::vector<ReconstructedOp>& ops)
{
    ConsumerCounts counts;
    for (const auto& op : ops) {
        if (op.kind == ReconstructedOp::Kind::kSkipped || op.node == nullptr)
            continue;
        for (const auto& arg : op.node->inputs)
            for (const auto& t : arg.tensors)
                ++counts[t.tensor_id];
    }
    return counts;
}

void
finalize_group(const std::vector<ReconstructedOp>& ops, FusedGroup& group,
               const ConsumerCounts* counts)
{
    // Restored plans re-enter here with only members/dead set, so every
    // structural failure throws ParseError: a corrupt or stale document must
    // quarantine-and-rebuild, never replay a wrong plan.
    if (group.members.empty())
        MYST_THROW(ParseError, "fused group without members");
    for (std::size_t k = 0; k < group.members.size(); ++k) {
        const int m = group.members[k];
        if (m < 0 || static_cast<std::size_t>(m) >= ops.size())
            MYST_THROW(ParseError, "fused group member " << m << " out of range");
        if (k > 0 && m != group.members[k - 1] + 1)
            MYST_THROW(ParseError, "fused group members not consecutive");
    }
    if (group.dead && group.members.size() != 1)
        MYST_THROW(ParseError, "dead group must have exactly one member");

    ConsumerCounts local;
    if (counts == nullptr) {
        local = consumer_counts(ops);
        counts = &local;
    }
    const ReconstructedOp& first = ops[static_cast<std::size_t>(group.members.front())];
    const fw::PointwiseInfo* first_info = fusable_info(first);
    if (first_info == nullptr)
        MYST_THROW(ParseError, "fused group member is not a fusable pointwise op");

    const int64_t chain_numel = first.node->inputs[0].tensors[0].numel;
    group.input_meta = first.node->inputs[0].tensors[0];
    group.stream = first.stream;
    group.tid = first.node->tid;
    group.stages.clear();
    group.operand_metas.clear();

    // algebraic_simplify context: true while the chain value is known to be
    // already rectified, making a subsequent relu a no-op.
    bool value_rectified = false;
    for (std::size_t k = 0; k < group.members.size(); ++k) {
        const ReconstructedOp& op = ops[static_cast<std::size_t>(group.members[k])];
        const fw::PointwiseInfo* info = fusable_info(op);
        if (info == nullptr)
            MYST_THROW(ParseError, "fused group member is not a fusable pointwise op");
        if (op.node->tid != group.tid || op.stream != group.stream)
            MYST_THROW(ParseError, "fused group spans threads or streams");
        const et::Node& node = *op.node;
        if (node.inputs[0].tensors[0].numel != chain_numel)
            MYST_THROW(ParseError, "fused group member numel mismatch");
        if (k > 0) {
            const int64_t link =
                output_tensor_id(ops[static_cast<std::size_t>(group.members[k - 1])]);
            if (node.inputs[0].tensors[0].tensor_id != link)
                MYST_THROW(ParseError, "fused chain broken: slot-0 input is not the "
                                       "previous member's output");
            if (count_of(*counts, link) != 1)
                MYST_THROW(ParseError,
                           "fused chain intermediate has multiple consumers");
        }

        const bool norm_head = info->args == fw::PointwiseArgs::kNormHead;
        if (norm_head && k > 0)
            MYST_THROW(ParseError, "normalization op fused mid-chain (head-only)");

        fw::FusedStage st;
        st.kernel = info->kernel;
        st.numel = chain_numel;
        st.node_id = node.id;
        if (norm_head) {
            const et::TensorMeta& im = node.inputs[0].tensors[0];
            st.channels = im.shape[1];
            st.spatial = im.shape[2] * im.shape[3];
            st.n_operands = 2;
            group.operand_metas.push_back(node.inputs[1].tensors[0]); // gamma
            group.operand_metas.push_back(node.inputs[2].tensors[0]); // beta
        } else if (info->tensor_operand()) {
            const et::TensorMeta& bm = node.inputs[1].tensors[0];
            st.operand_numel = bm.numel;
            st.n_operands = 1;
            group.operand_metas.push_back(bm);
        }
        const int slot = info->scalar_slot();
        const double scalar =
            slot > 0 ? *scalar_arg(node, static_cast<std::size_t>(slot)) : 1.0;
        st.alpha = static_cast<float>(scalar);

        // algebraic_simplify: stages that provably leave every element's
        // bits unchanged skip their arithmetic (the launch still replays).
        if (info->kernel == fw::FusedKernel::kMulScalar && scalar == 1.0)
            st.identity = true;
        else if (info->kernel == fw::FusedKernel::kRelu && value_rectified)
            st.identity = true;
        if (info->kernel == fw::FusedKernel::kRelu)
            value_rectified = true;
        else if (!st.identity)
            value_rectified = false;

        st.desc = fw::pointwise_desc(*info, chain_numel);
        group.stages.push_back(std::move(st));
    }

    const ReconstructedOp& last = ops[static_cast<std::size_t>(group.members.back())];
    group.output_meta = last.node->outputs[0].tensors[0];
    const int out_consumers = count_of(*counts, group.output_meta.tensor_id);
    if (group.dead) {
        if (out_consumers != 0)
            MYST_THROW(ParseError, "dead group output has consumers");
    } else if (group.members.size() == 1 && !group.stages[0].identity) {
        MYST_THROW(ParseError, "single-member group is neither dead nor an identity");
    }
}

OptimizerStats
derive_optimizer_stats(const std::vector<FusedGroup>& groups)
{
    OptimizerStats stats;
    for (const auto& g : groups) {
        if (g.members.size() >= 2) {
            ++stats.chains_formed;
            stats.ops_fused += static_cast<int64_t>(g.members.size());
        } else if (g.dead) {
            ++stats.ops_eliminated;
        }
        for (const auto& st : g.stages)
            if (st.identity)
                ++stats.ops_simplified;
    }
    return stats;
}

OptimizerStats
optimize_plan(std::vector<ReconstructedOp>& ops, std::vector<FusedGroup>& groups)
{
    const auto t0 = std::chrono::steady_clock::now();
    const auto counts = consumer_counts(ops);

    auto adopt = [&](FusedGroup g) {
        finalize_group(ops, g, &counts);
        const int gid = static_cast<int>(groups.size());
        for (const int m : g.members)
            ops[static_cast<std::size_t>(m)].fused_group = gid;
        ops[static_cast<std::size_t>(g.members.front())].fused_head = true;
        groups.push_back(std::move(g));
    };

    // Pass 1: dead_op_elimination — fusable ops whose output nothing
    // selected ever reads.  Launch and dispatch still replay (bit-identical
    // timeline); allocation, numerics and binding do not.
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].fused_group >= 0 || fusable_info(ops[i]) == nullptr)
            continue;
        if (count_of(counts, output_tensor_id(ops[i])) == 0) {
            FusedGroup g;
            g.members = {static_cast<int>(i)};
            g.dead = true;
            adopt(std::move(g));
        }
    }

    // Pass 2: algebraic_simplify — identify neutral ops; chain members are
    // marked inside finalize_group, leftovers become single-member groups
    // after chain formation.
    std::vector<bool> identity_candidate(ops.size(), false);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].fused_group >= 0)
            continue;
        const fw::PointwiseInfo* info = fusable_info(ops[i]);
        if (info != nullptr && info->kernel == fw::FusedKernel::kMulScalar &&
            scalar_arg(*ops[i].node, 1) == 1.0)
            identity_candidate[i] = true;
    }

    // Pass 3: fuse_pointwise_chains — maximal runs of consecutive fusable
    // ops where each link's slot-0 input is the previous member's output and
    // that intermediate has no other consumer.  Skipped or non-fusable ops
    // are barriers (consecutiveness is part of the contract: replay order
    // within the chain is exactly the recorded order).
    std::size_t i = 0;
    while (i < ops.size()) {
        if (ops[i].fused_group >= 0 || fusable_info(ops[i]) == nullptr) {
            ++i;
            continue;
        }
        const int64_t chain_numel = ops[i].node->inputs[0].tensors[0].numel;
        std::size_t j = i;
        while (j + 1 < ops.size()) {
            const ReconstructedOp& next = ops[j + 1];
            const fw::PointwiseInfo* next_info = fusable_info(next);
            if (next.fused_group >= 0 || next_info == nullptr ||
                next_info->args == fw::PointwiseArgs::kNormHead)
                break;
            const int64_t link = output_tensor_id(ops[j]);
            if (next.node->inputs[0].tensors[0].tensor_id != link ||
                count_of(counts, link) != 1 ||
                next.node->inputs[0].tensors[0].numel != chain_numel ||
                next.node->tid != ops[i].node->tid || next.stream != ops[i].stream)
                break;
            ++j;
        }
        if (j > i) {
            FusedGroup g;
            for (std::size_t m = i; m <= j; ++m)
                g.members.push_back(static_cast<int>(m));
            adopt(std::move(g));
        }
        i = j + 1;
    }

    // Pass 2 leftovers: standalone neutral ops still skip interpretation.
    for (std::size_t k = 0; k < ops.size(); ++k) {
        if (identity_candidate[k] && ops[k].fused_group < 0) {
            FusedGroup g;
            g.members = {static_cast<int>(k)};
            adopt(std::move(g));
        }
    }

    OptimizerStats stats = derive_optimizer_stats(groups);
    stats.optimize_us =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count() /
        1e3;
    return stats;
}

namespace {

/// Def-use state of one effect key: its last writer, and the newest entry
/// of the list of units that read it since that write.
struct EffectSlot {
    int last_writer = -1;
    int last_reader = -1; ///< index into EffectSlots::readers, or -1
};

/// Effect keys resolved to dense slots.  Each key occurrence costs one probe
/// of a flat index; the def-use sweep then indexes the slot vector.  Restore
/// runs this sweep on every disk hit, so the index allocates no node per key
/// and the reader lists share one pool instead of allocating a vector per
/// slot.
struct EffectSlots {
    /// Slot of each key.  Recorded tensor ids and storage ids live in
    /// separate namespaces, so each has its own index.
    FlatInt64Map<int> tensor_slot;
    FlatInt64Map<int> storage_slot;
    std::vector<EffectSlot> slots;
    /// Every slot's reader list: (unit, previous entry of the list or -1).
    std::vector<std::pair<int, int>> readers;

    void resolve(FlatInt64Map<int>& index, int64_t id, std::vector<int>& out)
    {
        const auto [slot, fresh] = index.try_emplace(id, static_cast<int>(slots.size()));
        if (fresh)
            slots.emplace_back();
        out.push_back(*slot);
    }

    void resolve_meta(const et::TensorMeta& m, std::vector<int>& out)
    {
        resolve(tensor_slot, m.tensor_id, out);
        if (m.storage_id >= 0)
            resolve(storage_slot, m.storage_id, out);
    }
};

/// Reads/writes of one unit, as effect slots.
void
unit_effects(const std::vector<ReconstructedOp>& ops,
             const std::vector<FusedGroup>& groups, const DepUnit& u,
             EffectSlots& effects, std::vector<int>& reads, std::vector<int>& writes)
{
    reads.clear();
    writes.clear();
    if (u.group >= 0) {
        const FusedGroup& g = groups[static_cast<std::size_t>(u.group)];
        effects.resolve_meta(g.input_meta, reads);
        for (const auto& m : g.operand_metas)
            effects.resolve_meta(m, reads);
        if (!g.dead)
            effects.resolve_meta(g.output_meta, writes);
        return;
    }
    const et::Node& node = *ops[static_cast<std::size_t>(u.head)].node;
    for (const auto& arg : node.inputs)
        for (const auto& t : arg.tensors)
            effects.resolve_meta(t, reads);
    for (const auto& arg : node.outputs)
        for (const auto& t : arg.tensors)
            effects.resolve_meta(t, writes);
}

/// The units of a reconstructed-op sequence in program order, deps empty.
/// One O(ops) pass.
std::vector<DepUnit>
enumerate_units(const std::vector<ReconstructedOp>& ops,
                const std::vector<FusedGroup>& groups)
{
    std::vector<DepUnit> units;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const ReconstructedOp& op = ops[i];
        DepUnit u;
        u.head = static_cast<int>(i);
        if (op.fused_group >= 0) {
            if (!op.fused_head)
                continue;
            u.group = op.fused_group;
            const FusedGroup& g = groups[static_cast<std::size_t>(op.fused_group)];
            u.stream = g.stream.value_or(dev::kComputeStream);
        } else {
            if (op.kind == ReconstructedOp::Kind::kSkipped || op.node == nullptr)
                continue;
            const bool is_comm = op.node->category == dev::OpCategory::kComm;
            u.comm = is_comm;
            u.stream = op.stream.value_or(is_comm ? dev::kCommStream
                                                  : dev::kComputeStream);
            // Barriers: collectives must keep their recorded per-rank issue
            // order (rendezvous deadlock otherwise); direct-dispatch custom
            // ops and tensor-less ops have effects the recorded tensor metas
            // cannot express.
            bool touches_tensors = false;
            for (const auto& arg : op.node->inputs)
                touches_tensors |= !arg.tensors.empty();
            for (const auto& arg : op.node->outputs)
                touches_tensors |= !arg.tensors.empty();
            u.barrier = is_comm ||
                        op.node->category == dev::OpCategory::kCustom ||
                        op.kind == ReconstructedOp::Kind::kDirect ||
                        !touches_tensors;
        }
        units.push_back(std::move(u));
    }
    return units;
}

} // namespace

DepGraph
build_dep_graph(const std::vector<ReconstructedOp>& ops,
                const std::vector<FusedGroup>& groups)
{
    DepGraph graph;
    graph.units = enumerate_units(ops, groups);

    // Def-use edges + barrier edges, one forward sweep.  Each unit's edges
    // collect in one scratch vector, so its deps allocate once.
    EffectSlots effects;
    int last_barrier = -1;
    std::vector<int> reads, writes, deps;
    for (std::size_t ui = 0; ui < graph.units.size(); ++ui) {
        DepUnit& u = graph.units[ui];
        const int self = static_cast<int>(ui);
        deps.clear();

        if (u.barrier) {
            // Runs after every earlier unit since (and including) the
            // previous barrier; everything after it depends on it below.
            for (int d = last_barrier < 0 ? 0 : last_barrier; d < self; ++d)
                deps.push_back(d);
            last_barrier = self;
        } else {
            if (last_barrier >= 0)
                deps.push_back(last_barrier);
            unit_effects(ops, groups, u, effects, reads, writes);
            for (const int s : reads) { // RAW
                const EffectSlot& slot = effects.slots[static_cast<std::size_t>(s)];
                if (slot.last_writer >= 0)
                    deps.push_back(slot.last_writer);
            }
            for (const int s : writes) { // WAW, then WAR
                const EffectSlot& slot = effects.slots[static_cast<std::size_t>(s)];
                if (slot.last_writer >= 0)
                    deps.push_back(slot.last_writer);
                for (int r = slot.last_reader; r >= 0;
                     r = effects.readers[static_cast<std::size_t>(r)].second)
                    deps.push_back(effects.readers[static_cast<std::size_t>(r)].first);
            }
            for (const int s : reads) {
                EffectSlot& slot = effects.slots[static_cast<std::size_t>(s)];
                effects.readers.emplace_back(self, slot.last_reader);
                slot.last_reader = static_cast<int>(effects.readers.size()) - 1;
            }
            for (const int s : writes) {
                EffectSlot& slot = effects.slots[static_cast<std::size_t>(s)];
                slot.last_writer = self;
                slot.last_reader = -1;
            }
        }

        std::sort(deps.begin(), deps.end());
        deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
        deps.erase(std::remove(deps.begin(), deps.end(), self), deps.end());
        u.deps.assign(deps.begin(), deps.end());
    }
    return graph;
}

} // namespace mystique::core
