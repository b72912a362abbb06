#pragma once

/// @file
/// Plan-level graph optimizer.
///
/// Runs once inside ReplayPlan construction (opt_level > 0), rewriting the
/// reconstructed-op sequence before the plan is cached — so the cost is paid
/// at build time and amortized across every warm replay by the two-tier
/// PlanCache.  Pass pipeline, in order:
///
///   1. dead_op_elimination   — allowlisted pointwise ops whose output no
///                              selected op consumes become single-member
///                              dead groups (launch replicated, no alloc).
///   2. algebraic_simplify    — marks algebraically neutral stages
///                              (mul.Scalar by 1.0, relu of an already
///                              rectified value) so the interpreter skips
///                              their arithmetic.
///   3. fuse_pointwise_chains — consecutive allowlisted ops whose slot-0
///                              tensors form a single-consumer chain with
///                              matching shape/dtype collapse into one
///                              loop-fused interpreter call.
///
/// The rewrite is timing- and bit-exact: groups re-issue every member's
/// device launch (same KernelDesc, order and jitter draws) and host dispatch
/// charge; only per-link CPU interpretation and intermediate materialization
/// are removed.  Members keep their ReconstructedOp entries, so coverage
/// accounting still counts the original ops a group subsumes.
///
/// Build-time code only: this header defines fused groups and the plan's
/// dependency graph; the replay executor (core/replayer.cpp) runs them.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/flat_map.h"
#include "core/reconstruction.h"
#include "et/node.h"
#include "framework/fused_chain.h"

namespace mystique::core {

/// Counters for one optimizer run; surfaced through PlanCacheStats and the
/// MYST_LOG=1 sweep report.  Everything except optimize_us is a pure
/// function of the resulting fused groups (see derive_optimizer_stats).
struct OptimizerStats {
    int64_t ops_fused = 0;       ///< members subsumed by multi-op chains
    int64_t ops_eliminated = 0;  ///< dead pointwise ops
    int64_t chains_formed = 0;   ///< multi-op chains
    int64_t ops_simplified = 0;  ///< identity stages (algebraic_simplify)
    double optimize_us = 0.0;    ///< wall time of the optimizer run
};

/// One fused execution group: a chain of >= 2 pointwise ops, a dead op, or a
/// standalone identity op.  Members are consecutive indices into the plan's
/// op sequence.
struct FusedGroup {
    std::vector<int> members;               ///< ascending, consecutive
    std::vector<fw::FusedStage> stages;     ///< one per member, in order
    bool dead = false;                      ///< output unconsumed: skip alloc
    et::TensorMeta input_meta;              ///< chain entry (member 0, slot 0)
    std::vector<et::TensorMeta> operand_metas; ///< per binary stage, in order
    et::TensorMeta output_meta;             ///< last member's recorded output
    std::optional<int> stream;              ///< original stream (all members)
    int tid = 0;                            ///< originating thread
};

/// Runs the pass pipeline over @p ops, appending discovered groups to
/// @p groups and marking members' fused_group / fused_head fields.
OptimizerStats optimize_plan(std::vector<ReconstructedOp>& ops,
                             std::vector<FusedGroup>& groups);

/// One executable unit of a plan: a standalone non-skipped op, or a whole
/// fused group (entered at its head member).  Skipped ops and non-head group
/// members are not units and never run — both executor walks run exactly
/// the plan's units.
struct DepUnit {
    int head = -1;      ///< op index of the unit's head
    int group = -1;     ///< fused-group id, or -1 for a standalone op
    int stream = 0;     ///< stream lane the unit executes on
    bool comm = false;  ///< collective (kComm category)
    bool barrier = false; ///< scheduling barrier: runs after everything
                          ///< before it, before everything after it
    std::vector<int> deps; ///< earlier unit indices (strictly ascending)

    bool operator==(const DepUnit&) const = default;
};

/// The per-plan dependency DAG, in program order: every dep points to an
/// earlier unit, so program order is always a valid topological order and the
/// serial walk (units in program order) is one legal schedule of the graph.
struct DepGraph {
    std::vector<DepUnit> units;

    bool operator==(const DepGraph&) const = default;
};

/// Derives the dependency graph for a reconstructed-op sequence:
///
///  - def-use edges over recorded tensor AND storage ids (RAW, WAW, and WAR
///    — a recycled storage must not be overwritten while a reader is
///    outstanding);
///  - barrier edges: collectives (their rendezvous order must match the
///    recorded per-rank order or ranks deadlock), direct-dispatch custom
///    ops, and ops touching no recorded tensors (unknown side effects) all
///    serialize against everything around them.
///
/// Pure function of (ops, groups): ReplayPlan::build and
/// ReplayPlan::from_json both derive the graph with this call, so plan
/// documents never carry it.  Units come in program order — the one
/// definition of what replay executes — and every edge points to an earlier
/// unit.
DepGraph build_dep_graph(const std::vector<ReconstructedOp>& ops,
                         const std::vector<FusedGroup>& groups);

/// Input-consumer multiplicity of every tensor id across the plan's
/// non-skipped ops — the single-consumer legality oracle shared by the
/// passes.  One full-plan scan (restore runs it on every disk hit); compute
/// it once and share it across every finalize_group call for the same op
/// sequence.
using ConsumerCounts = FlatInt64Map<int>;
ConsumerCounts consumer_counts(const std::vector<ReconstructedOp>& ops);

/// Derives stages, metas, stream and tid for a group whose `members` and
/// `dead` flag are already set — shared by optimize_plan and the
/// ReplayPlan::from_json restore path (which trusts the document's member
/// lists but re-derives everything else from the trace).  Throws ParseError
/// when a member is not a legally fusable op, so corrupt store entries
/// quarantine instead of replaying wrong.  Pass precomputed @p counts when
/// finalizing many groups of one plan (from_json restores are on the
/// disk-hit fast path); nullptr recomputes them for this group alone.
void finalize_group(const std::vector<ReconstructedOp>& ops, FusedGroup& group,
                    const ConsumerCounts* counts = nullptr);

/// Recomputes the derivable counters from @p groups (optimize_us = 0).
OptimizerStats derive_optimizer_stats(const std::vector<FusedGroup>& groups);

} // namespace mystique::core
