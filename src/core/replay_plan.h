#pragma once

/// @file
/// Shared replay plans (§8.2 fleet-scale story).
///
/// A ReplayPlan is the immutable output of the replay *build phase*:
/// selection (§4.2) + coverage accounting (§6.3) + reconstructed callables
/// (§4.3) + per-op stream assignments (§4.5), all OpId-indexed.  Building a
/// plan is the expensive part of replay setup; executing one is cheap.  The
/// split lets equivalent traces — the trace-database grouping case — share
/// one plan across many replays and many rank threads.
///
/// Immutability & thread-safety: every plan keeps the trace it was built
/// from alive through one shared pointer (so it is self-contained and safe to
/// cache process-wide), and after build returns nothing in it is ever written
/// again except the relaxed-atomic OpIdCache slots inside that trace and
/// compiled IR graphs, whose idempotent writes are race-free by design
/// (common/op_id.h).  Concurrent rank executors may therefore hold
/// `shared_ptr<const ReplayPlan>` and replay it simultaneously.
///
/// Identity: every plan carries its full PlanKey = (trace structural
/// fingerprint, supported-OpId-set fingerprint, ReplayConfig fingerprint,
/// profiler stream-map fingerprint), however it was built or restored.
/// ReplayConfig::fingerprint() covers exactly the fields that shape a plan or
/// its replayed timing per trace (platform, mode, filter, embedding
/// generation, custom-op set, emulate_world_size) and excludes run-harness
/// knobs (iterations, warmup, seed, power limit, profiling), so re-measuring
/// the same benchmark with different iteration counts still hits the cache.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/plan_optimizer.h"
#include "core/reconstruction.h"
#include "core/selection.h"
#include "core/tensor_manager.h"
#include "et/trace.h"
#include "profiler/profiler.h"

namespace mystique::core {

/// Default optimizer level: MYST_OPT_LEVEL when set, else 1 (optimizer on).
/// Read per call so tests can flip the environment between builds; a value
/// that is not a base-10 integer throws ConfigError.
int default_opt_level();

/// Default async-executor level: MYST_ASYNC when set, else 1 (multi-stream
/// executor on).  Read per call so tests can flip the environment; a value
/// that is not a base-10 integer throws ConfigError.
int default_async_level();

/// Replay configuration.
struct ReplayConfig {
    std::string platform = "A100";
    fw::ExecMode mode = fw::ExecMode::kShapeOnly;
    int warmup_iterations = 1;
    int iterations = 5;
    uint64_t seed = 0xB53C;
    std::optional<double> power_limit_w;

    /// Subtrace / operator-type filters (§7.1).
    SelectionFilter filter;

    /// Embedding index generation (§4.4's refinement interface).
    EmbeddingGenConfig embedding;

    /// Replayable custom ops (§4.3.3).
    CustomOpRegistry custom_ops = CustomOpRegistry::with_defaults();

    /// Scaled-down emulation (§7.3): 0 = off (rendezvous at actual size);
    /// -1 = emulate the *original* group sizes from the trace metadata;
    /// >0 = emulate this world size.
    int emulate_world_size = 0;

    /// Plan-level optimizer (core/plan_optimizer): 0 = verbatim plans,
    /// > 0 = dead-op elimination + algebraic simplify + pointwise-chain
    /// fusion at build time.  Part of fingerprint(): optimized and verbatim
    /// plans never alias in the memory or disk tier.
    int opt_level = default_opt_level();

    /// Multi-stream async executor (core/replayer): 0 = serial walk over
    /// the plan's units in program order, > 0 = dependency-tracked
    /// execution that runs independent streams concurrently and overlaps
    /// collectives with compute.  Part of fingerprint(): async and serial
    /// replays model different device timelines, so their plans must never
    /// alias in either cache tier.
    int async_level = default_async_level();

    /// Collect a profiler trace of the replay run (needed for similarity).
    bool collect_profiler = true;

    /// The replay Session options for @p rank of a @p world -rank replay:
    /// this config's platform, mode, seed and power limit under the replay
    /// dispatch profile.  Every replay session is configured here.
    fw::SessionOptions session_options(int rank, int world) const;

    /// Stable hash over the plan-shaping fields only: platform, mode, filter,
    /// embedding, custom-op set, emulate_world_size.  Harness knobs that do
    /// not change what gets built or how each op replays — iterations,
    /// warmup_iterations, seed, power_limit_w, collect_profiler — are
    /// deliberately excluded so they cannot fragment the plan cache.
    uint64_t fingerprint() const;

    /// Full round-trip serialization (every field, harness knobs included) —
    /// generated benchmark packages embed the config in manifest.json so a
    /// consumer can re-derive the exact plan key the package was built under.
    Json to_json() const;
    static ReplayConfig from_json(const Json& j);
};

/// The composite plan-cache key.  All components are name/value-based hashes
/// (never process-local OpIds), so equal keys mean "structurally identical
/// trace, same replayable set, same plan-shaping config".  The trace
/// component is the *structural* fingerprint (node order, schemas, shapes,
/// argument values, process groups) — not the coarse operator-mix hash the
/// database analyzer groups by — because a plan bakes shapes and stream
/// assignments in; traces that merely share an op mix must not silently
/// substitute for one another at the cache layer.  (Replaying a group
/// *representative* in place of its members is still the driver's explicit
/// policy, per §8.2 — the approximation lives there, visibly, not here.)
struct PlanKey {
    uint64_t trace_fp = 0;     ///< ExecutionTrace::structural_fingerprint()
    uint64_t supported_fp = 0; ///< supported-set fingerprint (registry ∩ custom)
    uint64_t config_fp = 0;    ///< ReplayConfig::fingerprint()
    /// ProfilerTrace::replay_fingerprint() of the prof the plan was built
    /// from (0 for prof-less builds): stream assignments come from the
    /// prof's *content* (its correlation→stream mapping), so plans built
    /// from behaviorally different profiler traces must not substitute for
    /// one another.  (Coverage statistics also derive from the prof but are
    /// representative-level by §8.2; timing jitter does not split the key.)
    uint64_t prof_fp = 0;
    bool has_prof = false; ///< disambiguates "no prof" from an empty prof

    bool operator==(const PlanKey&) const = default;

    /// Manifest / replay_plan.json serialization.  Fingerprints are emitted
    /// as decimal strings (JSON integers are signed 64-bit; the high bit of a
    /// hash must survive the round trip unmangled).
    Json to_json() const;
    static PlanKey from_json(const Json& j);
};

struct PlanKeyHash {
    std::size_t operator()(const PlanKey& k) const;
};

/// Fingerprint of the replayer's supported set under @p custom and the
/// current operator registry — the "supported-OpId set" key component.
/// Hashes supported op *names* so the value is stable across processes.
uint64_t supported_set_fingerprint(const CustomOpRegistry& custom);

/// Computes the cache key for a (trace, prof, config) build request.
PlanKey plan_key(const et::ExecutionTrace& trace, const prof::ProfilerTrace* prof,
                 const ReplayConfig& cfg);

/// The immutable, shareable build-phase output.
class ReplayPlan {
  public:
    /// Runs the full build phase over a private copy of @p trace (the plan
    /// is then self-contained, whatever the caller does with its trace):
    /// computes the key, selects replay targets, computes coverage,
    /// reconstructs every selected op and assigns streams from @p prof
    /// (which is only read during build, never retained).
    static std::shared_ptr<const ReplayPlan>
    build(const et::ExecutionTrace& trace, const prof::ProfilerTrace* prof,
          const ReplayConfig& cfg);

    /// Same build phase, but the plan *shares* @p trace instead of deep-
    /// copying it — the zero-copy path for callers that already hold traces
    /// in shared ownership (TraceDatabase, the disk tier).
    static std::shared_ptr<const ReplayPlan>
    build(std::shared_ptr<const et::ExecutionTrace> trace, const prof::ProfilerTrace* prof,
          const ReplayConfig& cfg);

    /// The trace the plan was built over, which the plan keeps alive;
    /// ReconstructedOp::node points into it.
    const et::ExecutionTrace& trace() const { return *trace_; }
    const Selection& selection() const { return selection_; }
    const CoverageStats& coverage() const { return coverage_; }
    const std::vector<ReconstructedOp>& ops() const { return ops_; }
    /// Fused execution groups produced by the plan optimizer (empty at
    /// opt_level 0); ReconstructedOp::fused_group indexes into this.
    const std::vector<FusedGroup>& fused_groups() const { return fused_groups_; }
    const OptimizerStats& optimizer_stats() const { return opt_stats_; }
    /// Per-plan dependency DAG over executable units, derived at every opt
    /// level by build() and from_json() alike.  Its units are what replay runs:
    /// the serial walk takes them in program order, the async executor
    /// schedules them by their edges.  See plan_optimizer.h.
    const DepGraph& dep_graph() const { return dep_graph_; }
    /// The full identity the plan was built under: plan_key() of its trace,
    /// prof and config.
    const PlanKey& key() const { return key_; }

    ReplayPlan(const ReplayPlan&) = delete;
    ReplayPlan& operator=(const ReplayPlan&) = delete;

    /// Shared-ownership build() with @p key = plan_key(*trace, prof, cfg)
    /// already computed (the PlanCache hashes the key for its lookup first;
    /// this avoids hashing everything twice).
    static std::shared_ptr<const ReplayPlan>
    build_with_key(std::shared_ptr<const et::ExecutionTrace> trace,
                   const prof::ProfilerTrace* prof, const ReplayConfig& cfg,
                   const PlanKey& key);

    /// Serializes the plan — key, selection, coverage, and every
    /// reconstructed op (kind, stream assignment, generated IR text) — as the
    /// `replay_plan.json` document of a generated benchmark package.
    Json to_json() const;

    /// Rebuilds a plan from to_json() output against @p trace (the packaged
    /// `execution_trace.json`).  Selection, coverage, the key, and stream
    /// assignments are restored verbatim from the JSON; compiled-IR callables
    /// are compiled from the document's ir_table (deterministic, so
    /// `from_json(plan.to_json(), trace)->to_json() == plan.to_json()`).
    /// The optimizer counters and the dependency graph are derived from the
    /// restored ops and fused groups by the same calls build() makes.
    /// The plan copies @p trace, as build() does.  Throws ParseError /
    /// MystiqueError when the JSON references nodes absent from the trace,
    /// lacks a required section (ir_table, ops), or records a fused group
    /// or reconstruction kind this process cannot reproduce.
    static std::shared_ptr<const ReplayPlan> from_json(const Json& j,
                                                       const et::ExecutionTrace& trace);

    /// Shared-ownership spelling: the restored plan *shares* @p trace
    /// instead of deep-copying it.  This is the disk-hit fast path — a
    /// store load re-uses the trace the cache caller already holds, so a
    /// restore costs one parse + one IR compile per distinct text and zero
    /// trace copies (the copy used to be the single largest line item).
    static std::shared_ptr<const ReplayPlan>
    from_json(const Json& j, std::shared_ptr<const et::ExecutionTrace> trace);

  private:
    ReplayPlan() = default;

    std::shared_ptr<const et::ExecutionTrace> trace_; ///< never null
    PlanKey key_;
    Selection selection_;
    CoverageStats coverage_;
    Reconstructor reconstructor_; ///< owns the compiled-IR functions ops_ point at
    std::vector<ReconstructedOp> ops_;
    std::vector<FusedGroup> fused_groups_;
    OptimizerStats opt_stats_;
    DepGraph dep_graph_;
};

} // namespace mystique::core
