#pragma once

/// @file
/// Persistent sweep journal: crash-safe resume + failure quarantine for
/// database sweeps (core/replay_driver.h).
///
/// A fleet sweep can take long enough that the process dies — OOM, preemption,
/// a poisoned trace — with most groups already replayed.  The journal is an
/// append-only JSONL file (`sweep_journal.jsonl` inside a configured journal
/// directory, conventionally the `MYST_PLAN_CACHE_DIR` tree) recording one
/// terminal outcome per (sweep, group): `ok` with the group's bit-exact
/// replayed timings, or `failed`/`timed_out` with the error text.  A
/// restarted sweep of the same database under the same config
///
///  - **resumes**: groups whose latest record is `ok` restore their result
///    from the journal instead of replaying (floating-point values are stored
///    as IEEE-754 bit patterns, so the restored weighted mean is bit-identical
///    to the one the interrupted sweep would have produced), and
///  - **quarantines**: a group fingerprint whose records show
///    `kQuarantineThreshold` *consecutive* failures is known-bad; the sweep
///    marks it `quarantined` without burning another replay on it.  A later
///    recorded success — e.g. a probe attempt — resets the count: quarantine
///    heals, it is never a tombstone.
///
/// ## Trust model & durability
///
/// The journal is advisory, never authoritative: a lost or corrupt record can
/// only cost a redundant re-replay, never a wrong result, because `ok`
/// records are only written after a successful replay and resume restores
/// exactly what was recorded.  Each line is one sealed record (v3,
/// `Json::dump_sealed`), so an edited record fails its seal.  An append
/// writes its one line to the end of the file and fsyncs it (`append_file`);
/// it never rewrites the lines before it, so journals of concurrent sweeps
/// sharing a directory keep every record each of them appended.  A crash
/// mid-append leaves at most a torn last line, and the next append starts
/// on a new line instead of joining it.  A record whose append failed stays
/// in memory for this sweep's quarantine accounting but is never written
/// later: a resumed sweep does not see it, and its group replays.  Unreadable
/// journals and lines that do not parse, fail their seal, carry another
/// record version or a status the journal never writes are skipped with a
/// warning, and their groups replay.  The `journal.write` / `journal.load`
/// fault sites (common/fault_injection.h) let tests prove all of this.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace mystique::core {

/// Terminal outcome of one group within a sweep.
enum class GroupStatus {
    kOk,          ///< replayed (or restored from the journal) successfully
    kFailed,      ///< every attempt threw; error text recorded
    kTimedOut,    ///< the per-group deadline expired (cooperative cancel)
    kQuarantined, ///< skipped: the journal shows repeated prior failures
};

const char* to_string(GroupStatus status);

/// One journal line.  Only terminal outcomes are journaled (`ok`, `failed`,
/// `timed_out`); `quarantined` groups were not attempted, so they leave no
/// record and a later sweep may try them again.  A line carrying any other
/// status is skipped on load, like a torn one.
struct SweepJournalRecord {
    uint64_t sweep_fp = 0; ///< identity of the sweep (db groups × full config)
    uint64_t group_fp = 0; ///< the group's operator-mix fingerprint
    GroupStatus status = GroupStatus::kOk;
    uint32_t attempts = 0;
    std::string error;             ///< non-empty for failed/timed_out
    double population_weight = 0.0;
    std::vector<double> iter_us;   ///< ok records: bit-exact replayed timings
    double mean_iter_us = 0.0;
};

class SweepJournal {
  public:
    /// Opens (without reading) the journal inside @p dir; the file is
    /// `<dir>/sweep_journal.jsonl`, created on first append.
    explicit SweepJournal(const std::string& dir);

    /// Loads existing records.  Absorbs every failure — an unreadable file
    /// (or an injected `journal.load` fault) warns and leaves the journal
    /// empty; a line that does not parse or fails its seal warns and is
    /// skipped; sealed lines around it still load.  Returns the number of
    /// records loaded.
    std::size_t load();

    /// Appends @p rec's sealed line to the file.  Absorbs write failures
    /// (journaling is best-effort): returns false — and keeps the record in
    /// memory, so quarantine accounting still sees it — when the append
    /// failed (or the `journal.write` fault fired).  Thread-safe: sweep
    /// workers append concurrently.
    bool append(const SweepJournalRecord& rec);

    /// Latest `ok` record for (sweep_fp, group_fp) — the resume lookup — or
    /// nullopt when the group has no success on file (or a failure was
    /// recorded after it, which invalidates the stale success).  Returned by
    /// value: sweep workers append concurrently with lookups.
    std::optional<SweepJournalRecord> completed(uint64_t sweep_fp,
                                                uint64_t group_fp) const;

    /// Consecutive trailing failures recorded for @p group_fp across every
    /// sweep; any recorded success resets the streak to zero.
    int consecutive_failures(uint64_t group_fp) const;

    /// True once consecutive_failures() reaches kQuarantineThreshold.
    bool quarantined(uint64_t group_fp) const
    {
        return consecutive_failures(group_fp) >= kQuarantineThreshold;
    }

    /// The most recent failure record for @p group_fp (for error reporting on
    /// quarantined groups); nullopt when none.
    std::optional<SweepJournalRecord> last_failure(uint64_t group_fp) const;

    /// Failures recorded before quarantine engages.  Two consecutive
    /// failures mean the group failed, was retried by a whole fresh sweep
    /// (fresh sessions, fresh plans), and failed again — at that point a
    /// third identical attempt is fleet-budget burn, not diagnosis.
    static constexpr int kQuarantineThreshold = 2;

  private:
    std::string path_;
    mutable std::mutex mu_;
    std::vector<SweepJournalRecord> records_; ///< load order, then append order
};

} // namespace mystique::core
