#pragma once

/// @file
/// Content-addressed on-disk replay-plan store — the PlanCache's second tier.
///
/// Repeated sweeps of a stable trace database across *process restarts* used
/// to pay full plan builds for byte-identical traces; the store makes them a
/// parse instead.  Each entry is one sealed JSON file (`Json::dump_sealed`)
/// named after the full PlanKey fingerprint tuple, holding
/// `ReplayPlan::to_json()`, whose "key" member is the plan's identity.
/// Deserialization reuses `ReplayPlan::from_json` — the same loader the
/// benchmark-package import path in codegen uses — against the *caller's*
/// trace: a disk fetch only ever happens inside `PlanCache::get_or_build`,
/// whose key already pins the trace's structural fingerprint, so the trace
/// the plan must bind to is the one in hand, verified by construction.
/// Entries therefore stay plan-sized (no embedded trace copy), and a disk
/// hit costs one parse, a compile of each *distinct* recorded IR text and
/// one def-use pass over the restored ops for the dependency graph — never
/// a selection + coverage + reconstruction pass.
///
/// ## Durability contract
///
/// - **Atomic publication:** entries are written via temp-file + rename
///   (`common/fs_util.h`), so a reader never sees a torn file — concurrent
///   writers of the same key (two processes building the same plan) race
///   benignly, last-complete-rename wins, both renames publish valid bytes.
/// - **Quarantine, never crash:** a corrupt, truncated, zero-byte, edited,
///   stale-schema, wrong-key, or kind-drifted entry is renamed `<entry>.bad`
///   and reported as a miss; the caller rebuilds (and re-persists) the plan.
///   Disk rot can cost a rebuild, never a wrong plan.
/// - **Seal plus addressing is the whole trust model:** load() checks the
///   entry's seal (`Json::parse_sealed`), so no byte changed after the write
///   goes unnoticed, and then checks that the plan's key equals the
///   requested key, whose `trace_fp` was derived from the caller's actual
///   trace — a swapped or hand-edited entry cannot impersonate another plan.

#include <memory>
#include <string>

#include "core/replay_plan.h"

namespace mystique::core {

/// Schema version of a store entry; bumped on incompatible layout changes.
/// load() quarantines entries from other versions (stale-schema rot).
/// v2: plan documents carry optimizer output ("fused_groups" + "optimizer",
/// config "opt_level") — v1 entries quarantine-and-rebuild.
/// v3: plan documents carry the executor dependency graph ("dep_graph",
/// config "async_level") — v2 entries quarantine-and-rebuild.
/// v4: plan documents drop "dep_graph", its seal and the "identity" /
/// "optimizer" blocks; restore derives them — v3 entries quarantine-and-rebuild.
/// v5: an entry is the sealed document {format, format_version, plan}, with
/// no second copy of the key — v4 entries quarantine-and-rebuild.
inline constexpr int kPlanStoreFormatVersion = 5;

class PlanStore {
  public:
    /// @param directory  created lazily on first store(); load() from a
    ///        missing directory is simply a miss.
    explicit PlanStore(std::string directory);

    const std::string& directory() const { return dir_; }

    /// The entry file for @p key: `plan-<trace>-<supported>-<config>-<prof>-
    /// <p|n>.json`, every component a zero-padded hex fingerprint.
    std::string entry_path(const PlanKey& key) const;

    /// Fetches @p key's plan from disk, binding it to @p trace (which must
    /// be the trace @p key was computed from; get_or_build guarantees this).
    /// The restored plan *shares* @p trace — no deep copy on the hit path.
    /// Returns nullptr on a clean miss (no entry).  Invalid entries of every
    /// flavor are quarantined to `.bad` and reported as a miss — this never
    /// throws and never returns a plan whose identity differs from @p key.
    std::shared_ptr<const ReplayPlan>
    load(const PlanKey& key, std::shared_ptr<const et::ExecutionTrace> trace) const;

    /// Serializes @p plan (which must carry the full key it is stored
    /// under) and atomically publishes the entry, creating the directory if
    /// needed.  Returns false on I/O failure (disk full, unwritable dir)
    /// instead of throwing — persistence is an optimization, not a
    /// correctness requirement.
    bool store(const ReplayPlan& plan) const;

  private:
    std::string dir_;
};

} // namespace mystique::core
