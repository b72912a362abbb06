#include "core/replay_plan.h"

#include <algorithm>
#include <climits>
#include <mutex>
#include <unordered_map>

#include "common/env.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "device/platform.h"
#include "framework/op_registry.h"
#include "jit/ir.h"

namespace mystique::core {

int
default_opt_level()
{
    return static_cast<int>(env_u64("MYST_OPT_LEVEL", INT_MAX).value_or(1));
}

int
default_async_level()
{
    return static_cast<int>(env_u64("MYST_ASYNC", INT_MAX).value_or(1));
}

fw::SessionOptions
ReplayConfig::session_options(int rank, int world) const
{
    fw::SessionOptions opts;
    opts.platform = dev::platform(platform);
    opts.mode = mode;
    opts.seed = seed;
    opts.rank = rank;
    opts.world_size = world;
    opts.power_limit_w = power_limit_w;
    opts.dispatch = fw::DispatchProfile::replay();
    return opts;
}

uint64_t
ReplayConfig::fingerprint() const
{
    Fnv1a h;
    h.mix(platform);
    h.mix_pod(mode);
    h.mix_pod(filter.subtrace_root.has_value());
    if (filter.subtrace_root.has_value())
        h.mix(*filter.subtrace_root);
    h.mix_pod(filter.only_category.has_value());
    if (filter.only_category.has_value())
        h.mix_pod(*filter.only_category);
    h.mix_pod(embedding.distribution);
    h.mix_pod(embedding.zipf_s);
    // Custom-op set: sorted so registration order cannot split the key.
    std::vector<std::string> custom = custom_ops.registered();
    std::sort(custom.begin(), custom.end());
    for (const auto& name : custom)
        h.mix(name);
    h.mix_pod(emulate_world_size);
    h.mix_pod(opt_level);
    h.mix_pod(async_level);
    return h.value();
}

Json
ReplayConfig::to_json() const
{
    Json j = Json::object();
    j.set("platform", Json(platform));
    j.set("mode", Json(mode == fw::ExecMode::kNumeric ? "numeric" : "shape_only"));
    j.set("warmup_iterations", Json(warmup_iterations));
    j.set("iterations", Json(iterations));
    j.set("seed", Json(seed));
    j.set("power_limit_w", power_limit_w.has_value() ? Json(*power_limit_w) : Json());
    Json filter_j = Json::object();
    filter_j.set("subtrace_root",
                 filter.subtrace_root.has_value() ? Json(*filter.subtrace_root) : Json());
    filter_j.set("only_category", filter.only_category.has_value()
                                      ? Json(dev::to_string(*filter.only_category))
                                      : Json());
    j.set("filter", std::move(filter_j));
    Json emb_j = Json::object();
    emb_j.set("distribution",
              Json(embedding.distribution == EmbeddingGenConfig::Distribution::kZipf
                       ? "zipf"
                       : "uniform"));
    emb_j.set("zipf_s", Json(embedding.zipf_s));
    j.set("embedding", std::move(emb_j));
    // registered() merges op names and namespace prefixes; the "::" suffix
    // distinguishes them, so one sorted list round-trips both.
    std::vector<std::string> custom = custom_ops.registered();
    std::sort(custom.begin(), custom.end());
    Json custom_j = Json::array();
    for (const auto& name : custom)
        custom_j.push_back(Json(name));
    j.set("custom_ops", std::move(custom_j));
    j.set("emulate_world_size", Json(emulate_world_size));
    j.set("opt_level", Json(opt_level));
    j.set("async_level", Json(async_level));
    j.set("collect_profiler", Json(collect_profiler));
    return j;
}

ReplayConfig
ReplayConfig::from_json(const Json& j)
{
    // Both levels are read below, so their environment-reading defaults
    // must not run: a complete document never consults the environment.
    ReplayConfig cfg{.opt_level = 0, .async_level = 0};
    cfg.platform = j.at("platform").as_string();
    const std::string& mode = j.at("mode").as_string();
    if (mode != "numeric" && mode != "shape_only")
        MYST_THROW(ParseError, "replay config json: unknown mode '" + mode + "'");
    cfg.mode = mode == "numeric" ? fw::ExecMode::kNumeric : fw::ExecMode::kShapeOnly;
    cfg.warmup_iterations = j.at("warmup_iterations").as_int32();
    cfg.iterations = j.at("iterations").as_int32();
    cfg.seed = static_cast<uint64_t>(j.at("seed").as_int());
    cfg.power_limit_w.reset();
    if (!j.at("power_limit_w").is_null())
        cfg.power_limit_w = j.at("power_limit_w").as_double();
    const Json& filter_j = j.at("filter");
    if (!filter_j.at("subtrace_root").is_null())
        cfg.filter.subtrace_root = filter_j.at("subtrace_root").as_string();
    if (!filter_j.at("only_category").is_null())
        cfg.filter.only_category =
            dev::op_category_from_string(filter_j.at("only_category").as_string());
    const Json& emb_j = j.at("embedding");
    const std::string& dist = emb_j.at("distribution").as_string();
    if (dist != "zipf" && dist != "uniform")
        MYST_THROW(ParseError, "replay config json: unknown distribution '" + dist + "'");
    cfg.embedding.distribution = dist == "zipf" ? EmbeddingGenConfig::Distribution::kZipf
                                                : EmbeddingGenConfig::Distribution::kUniform;
    cfg.embedding.zipf_s = emb_j.at("zipf_s").as_double();
    cfg.custom_ops = CustomOpRegistry::empty();
    for (const Json& name : j.at("custom_ops").as_array()) {
        const std::string& n = name.as_string();
        if (n.size() >= 2 && n.compare(n.size() - 2, 2, "::") == 0)
            cfg.custom_ops.register_namespace(n);
        else
            cfg.custom_ops.register_op(n);
    }
    cfg.emulate_world_size = j.at("emulate_world_size").as_int32();
    cfg.opt_level = j.at("opt_level").as_int32();
    cfg.async_level = j.at("async_level").as_int32();
    cfg.collect_profiler = j.at("collect_profiler").as_bool();
    return cfg;
}

Json
PlanKey::to_json() const
{
    Json j = Json::object();
    j.set("trace_fp", Json::from_u64(trace_fp));
    j.set("supported_fp", Json::from_u64(supported_fp));
    j.set("config_fp", Json::from_u64(config_fp));
    j.set("prof_fp", Json::from_u64(prof_fp));
    j.set("has_prof", Json(has_prof));
    return j;
}

PlanKey
PlanKey::from_json(const Json& j)
{
    return PlanKey{.trace_fp = j.at("trace_fp").as_u64(),
                   .supported_fp = j.at("supported_fp").as_u64(),
                   .config_fp = j.at("config_fp").as_u64(),
                   .prof_fp = j.at("prof_fp").as_u64(),
                   .has_prof = j.at("has_prof").as_bool()};
}

std::size_t
PlanKeyHash::operator()(const PlanKey& k) const
{
    Fnv1a h;
    h.mix_pod(k.trace_fp);
    h.mix_pod(k.supported_fp);
    h.mix_pod(k.config_fp);
    h.mix_pod(k.prof_fp);
    h.mix_pod(k.has_prof);
    return static_cast<std::size_t>(h.value());
}

uint64_t
supported_set_fingerprint(const CustomOpRegistry& custom)
{
    fw::ensure_ops_registered();
    const fw::OpRegistry& reg = fw::OpRegistry::instance();

    // Memo: the registry is append-only, so (custom-op set, registry bound)
    // fully determines the supported set.  This keeps the per-lookup cost of
    // PlanCache::get_or_build at a couple of hashes instead of a full
    // registry walk.
    Fnv1a memo_key;
    {
        std::vector<std::string> names = custom.registered();
        std::sort(names.begin(), names.end());
        for (const auto& name : names)
            memo_key.mix(name);
        memo_key.mix_pod(reg.id_bound());
    }
    static std::mutex memo_mu;
    static std::unordered_map<uint64_t, uint64_t> memo;
    {
        std::lock_guard<std::mutex> lock(memo_mu);
        auto it = memo.find(memo_key.value());
        if (it != memo.end())
            return it->second;
    }

    const SupportedSet supported = SupportedSet::build(custom);
    // Hash the supported *names* in sorted OpId order; OpIds themselves are
    // process-local and never enter the hash.
    std::vector<const std::string*> names;
    for (OpId id = 0; static_cast<std::size_t>(id) < reg.id_bound(); ++id) {
        if (supported.contains(id))
            names.push_back(&reg.name(id));
    }
    std::sort(names.begin(), names.end(),
              [](const std::string* a, const std::string* b) { return *a < *b; });
    Fnv1a h;
    for (const std::string* name : names)
        h.mix(*name);
    {
        std::lock_guard<std::mutex> lock(memo_mu);
        memo[memo_key.value()] = h.value();
    }
    return h.value();
}

PlanKey
plan_key(const et::ExecutionTrace& trace, const prof::ProfilerTrace* prof,
         const ReplayConfig& cfg)
{
    PlanKey key;
    key.trace_fp = trace.structural_fingerprint();
    key.supported_fp = supported_set_fingerprint(cfg.custom_ops);
    key.config_fp = cfg.fingerprint();
    key.prof_fp = prof != nullptr ? prof->replay_fingerprint() : 0;
    key.has_prof = prof != nullptr;
    return key;
}

std::shared_ptr<const ReplayPlan>
ReplayPlan::build(const et::ExecutionTrace& trace, const prof::ProfilerTrace* prof,
                  const ReplayConfig& cfg)
{
    return build(std::make_shared<et::ExecutionTrace>(trace), prof, cfg);
}

std::shared_ptr<const ReplayPlan>
ReplayPlan::build(std::shared_ptr<const et::ExecutionTrace> trace,
                  const prof::ProfilerTrace* prof, const ReplayConfig& cfg)
{
    MYST_CHECK(trace != nullptr);
    const PlanKey key = plan_key(*trace, prof, cfg);
    return build_with_key(std::move(trace), prof, cfg, key);
}

std::shared_ptr<const ReplayPlan>
ReplayPlan::build_with_key(std::shared_ptr<const et::ExecutionTrace> trace,
                           const prof::ProfilerTrace* prof, const ReplayConfig& cfg,
                           const PlanKey& key)
{
    MYST_CHECK(trace != nullptr);
    fw::ensure_ops_registered();
    auto plan = std::shared_ptr<ReplayPlan>(new ReplayPlan());
    plan->trace_ = trace; // shared: the plan outlives the caller's handle
    plan->key_ = key;
    plan->selection_ = select_ops(*trace, cfg.custom_ops, cfg.filter);
    plan->coverage_ = mystique::core::coverage(*trace, plan->selection_, prof);

    // Reconstruct every selected op up-front (§4.3.4: initialization phase).
    plan->ops_.reserve(plan->selection_.ops.size());
    for (const auto& sel : plan->selection_.ops) {
        const et::Node* node = trace->find(sel.node_id);
        MYST_CHECK(node != nullptr);
        ReconstructedOp op = plan->reconstructor_.reconstruct(*node, sel.supported);

        // Stream assignment from the profiler trace (§4.5): an op's kernels
        // correlate with its own node or its descendants'.
        if (prof != nullptr && op.kind != ReconstructedOp::Kind::kSkipped) {
            auto it = plan->selection_.subtree_ids.find(sel.node_id);
            if (it != plan->selection_.subtree_ids.end()) {
                for (int64_t sub_id : it->second) {
                    auto streams = prof->streams_for_node(sub_id);
                    if (!streams.empty()) {
                        op.stream = streams.front();
                        break;
                    }
                }
            }
        }
        plan->ops_.push_back(std::move(op));
    }

    // Optimizer pipeline (opt_level > 0): runs once here, so the cost is
    // paid at build time and every warm cache hit replays pre-fused.
    if (cfg.opt_level > 0)
        plan->opt_stats_ = optimize_plan(plan->ops_, plan->fused_groups_);

    // Dependency graph, at every opt level: the async executor schedules
    // from it, and deriving it here (once, amortized by the cache) keeps the
    // replay hot path free of def-use analysis.
    plan->dep_graph_ = build_dep_graph(plan->ops_, plan->fused_groups_);
    return plan;
}

namespace {

const char*
kind_name(ReconstructedOp::Kind kind)
{
    switch (kind) {
      case ReconstructedOp::Kind::kCompiledIr: return "compiled_ir";
      case ReconstructedOp::Kind::kDirect: return "direct";
      case ReconstructedOp::Kind::kSkipped: return "skipped";
    }
    return "?";
}

Json
coverage_to_json(const CoverageStats& cov)
{
    Json j = Json::object();
    j.set("selected_ops", Json(cov.selected_ops));
    j.set("supported_ops", Json(cov.supported_ops));
    j.set("count_fraction", Json(cov.count_fraction));
    j.set("time_fraction", Json(cov.time_fraction));
    Json unsupported = Json::object();
    for (const auto& [name, count] : cov.unsupported_by_name)
        unsupported.set(name, Json(count));
    j.set("unsupported_by_name", std::move(unsupported));
    j.set("unsupported_kernel_us", Json(cov.unsupported_kernel_us));
    j.set("unsupported_exposed_us", Json(cov.unsupported_exposed_us));
    return j;
}

CoverageStats
coverage_from_json(const Json& j)
{
    CoverageStats cov;
    cov.selected_ops = j.at("selected_ops").as_int();
    cov.supported_ops = j.at("supported_ops").as_int();
    cov.count_fraction = j.at("count_fraction").as_double();
    cov.time_fraction = j.at("time_fraction").as_double();
    for (const auto& [name, count] : j.at("unsupported_by_name").as_object())
        cov.unsupported_by_name[name] = count.as_int();
    cov.unsupported_kernel_us = j.at("unsupported_kernel_us").as_double();
    cov.unsupported_exposed_us = j.at("unsupported_exposed_us").as_double();
    return cov;
}

} // namespace

Json
ReplayPlan::to_json() const
{
    Json j = Json::object();
    j.set("key", key_.to_json());
    j.set("coverage", coverage_to_json(coverage_));

    // The document carries exactly what restore cannot derive:
    //  - "ir_table": each *distinct* IR text once — traces repeat ops across
    //    iterations and layers, so inlining IR per op used to be most of the
    //    file;
    //  - "ops": per selected op, the node it binds to, the reconstruction
    //    kind, the stream assignment, and an ir_table index.
    // The selection is implied (op order IS selection order; an op is
    // supported iff its kind is not "skipped"), and subtree groupings are
    // build-phase scaffolding for stream/coverage derivation — both restored
    // facts, so neither is serialized.
    Json ops = Json::array();
    Json ir_table = Json::array();
    std::unordered_map<std::string_view, int64_t> ir_index;
    for (const ReconstructedOp& op : ops_) {
        Json o = Json::object();
        o.set("node_id", Json(op.node->id));
        // "kind" is implied for the dominant case: an op with an "ir"
        // reference is compiled_ir; direct/skipped ops spell it out.
        if (op.kind != ReconstructedOp::Kind::kCompiledIr)
            o.set("kind", Json(kind_name(op.kind)));
        if (op.stream.has_value())
            o.set("stream", Json(static_cast<int64_t>(*op.stream)));
        if (!op.ir_text.empty()) {
            const auto [it, fresh] = ir_index.try_emplace(
                op.ir_text, static_cast<int64_t>(ir_table.as_array().size()));
            if (fresh)
                ir_table.push_back(Json(op.ir_text));
            o.set("ir", Json(it->second));
        }
        ops.push_back(std::move(o));
    }
    j.set("ir_table", std::move(ir_table));
    j.set("ops", std::move(ops));

    // Fused groups (opt_level > 0 builds only).  Members are op indices;
    // stages, metas and descs are deterministic derivations from the trace
    // (finalize_group), so only the discovery result crosses the boundary.
    // The optimizer counters and the dependency graph derive from the
    // restored ops and groups, so the document carries neither.
    if (!fused_groups_.empty()) {
        Json groups = Json::array();
        for (const FusedGroup& g : fused_groups_) {
            Json gj = Json::object();
            Json members = Json::array();
            for (const int m : g.members)
                members.push_back(Json(static_cast<int64_t>(m)));
            gj.set("members", std::move(members));
            if (g.dead)
                gj.set("dead", Json(true));
            groups.push_back(std::move(gj));
        }
        j.set("fused_groups", std::move(groups));
    }
    return j;
}

std::shared_ptr<const ReplayPlan>
ReplayPlan::from_json(const Json& j, const et::ExecutionTrace& trace)
{
    // Private copy: self-contained, like build().
    return from_json(j, std::make_shared<et::ExecutionTrace>(trace));
}

std::shared_ptr<const ReplayPlan>
ReplayPlan::from_json(const Json& j, std::shared_ptr<const et::ExecutionTrace> trace)
{
    MYST_CHECK(trace != nullptr);
    fw::ensure_ops_registered();
    auto plan = std::shared_ptr<ReplayPlan>(new ReplayPlan());
    plan->trace_ = std::move(trace); // shared: self-contained, zero-copy
    plan->key_ = PlanKey::from_json(j.at("key"));
    plan->coverage_ = coverage_from_json(j.at("coverage"));

    // Restore the selection and the ops in one pass: op order is selection
    // order, and an op is supported iff its kind is not "skipped".
    // Compiled callables restore from the *recorded* IR text rather than
    // re-deriving it from each node's schema — the document already carries
    // the exact IR the generating process executed, and traces repeat ops
    // across iterations and layers, so compiling each distinct ir_table
    // entry once (ops with equal IR share one jit::Function; execution state
    // lives in the per-rank session, never in the function) makes restore a
    // parse instead of a full reconstruction pass.  That cost asymmetry is
    // what the disk tier's micro_plan_disk gate is built on.
    const Json::Array& ops_j = j.at("ops").as_array();
    const Json::Array& ir_table = j.at("ir_table").as_array();
    std::vector<const jit::Function*> compiled(ir_table.size(), nullptr);
    plan->selection_.ops.reserve(ops_j.size());
    plan->ops_.reserve(ops_j.size());
    for (const Json& o : ops_j) {
        const int64_t node_id = o.at("node_id").as_int();
        const et::Node* node = plan->trace_->find(node_id);
        if (node == nullptr)
            MYST_THROW(ParseError, "plan json: selected node " + std::to_string(node_id) +
                                       " is not in the trace");
        const Json* kind_j = o.find("kind");
        const std::string recorded_kind = kind_j != nullptr ? kind_j->as_string() : "compiled_ir";
        const SelectedOp sel{node_id, recorded_kind != "skipped", et::resolve_op_id(*node)};
        plan->selection_.ops.push_back(sel);

        ReconstructedOp op;
        op.node = node;
        op.op_id = sel.op_id;
        // The kind this process's registry would reconstruct.  A drift vs
        // the recorded kind means the registry / custom-op set no longer
        // matches the one the plan was generated under — replaying anyway
        // would silently execute a different benchmark.
        op.kind = Reconstructor::decide_kind(*node, sel.supported);
        if (kind_name(op.kind) != recorded_kind)
            MYST_THROW(MystiqueError,
                       "plan json: node " + std::to_string(node_id) + " ('" + node->name +
                           "') reconstructs as " + kind_name(op.kind) +
                           " but the plan was generated with " + recorded_kind +
                           " — op registry mismatch with the generating process");

        if (op.kind == ReconstructedOp::Kind::kCompiledIr) {
            const int64_t ref = o.at("ir").as_int();
            if (ref < 0 || static_cast<std::size_t>(ref) >= ir_table.size())
                MYST_THROW(ParseError, "plan json: op ir reference " + std::to_string(ref) +
                                           " is outside the ir_table");
            op.ir_text = ir_table[static_cast<std::size_t>(ref)].as_string();
            const jit::Function*& fn = compiled[static_cast<std::size_t>(ref)];
            // Malformed IR makes parse_ir throw ParseError → the caller
            // (plan store / package import) treats the document as corrupt.
            if (fn == nullptr)
                fn = &plan->reconstructor_.create_function(
                    strprintf("%s_n%lld", node->name.c_str(),
                              static_cast<long long>(node->id)),
                    jit::parse_ir(op.ir_text));
            op.fn = fn;
        }
        if (const Json* stream = o.find("stream"))
            op.stream = stream->as_int32();
        plan->ops_.push_back(std::move(op));
    }

    // Fused groups: the document is trusted for *what* was grouped (member
    // indices + dead flag); everything executable — stages, kernel descs,
    // metas — is re-derived from the trace by finalize_group, which throws
    // ParseError on any member that is not legally fusable.  A tampered or
    // stale document therefore quarantines instead of replaying wrong.
    if (const Json* groups_j = j.find("fused_groups")) {
        // One shared consumer-count scan: restores sit on the disk-hit fast
        // path, where a per-group scan would be quadratic in plan size.
        const ConsumerCounts counts = consumer_counts(plan->ops_);
        for (const Json& gj : groups_j->as_array()) {
            FusedGroup g;
            for (const Json& m : gj.at("members").as_array())
                g.members.push_back(m.as_int32());
            if (const Json* dead = gj.find("dead"))
                g.dead = dead->as_bool();
            finalize_group(plan->ops_, g, &counts);
            const int gid = static_cast<int>(plan->fused_groups_.size());
            for (const int m : g.members) {
                ReconstructedOp& op = plan->ops_[static_cast<std::size_t>(m)];
                if (op.fused_group >= 0)
                    MYST_THROW(ParseError, "plan json: op in two fused groups");
                op.fused_group = gid;
            }
            plan->ops_[static_cast<std::size_t>(g.members.front())].fused_head = true;
            plan->fused_groups_.push_back(std::move(g));
        }
        plan->opt_stats_ = derive_optimizer_stats(plan->fused_groups_);
    }

    // Dependency graph: the same derivation build() runs, so nothing in a
    // document can change what replay runs or in which order.
    plan->dep_graph_ = build_dep_graph(plan->ops_, plan->fused_groups_);
    return plan;
}

} // namespace mystique::core
