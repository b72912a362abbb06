#pragma once

/// @file
/// Differential oracle over fuzzed traces.
///
/// The fuzzer (testing/trace_fuzzer.h) supplies randomized-but-valid inputs;
/// this oracle supplies the *judgments* — properties the replay pipeline
/// promises for every trace, checked bitwise (never with tolerances, because
/// the simulator is deterministic and "close" would mask real divergence):
///
///  1. replay-vs-direct: a one-shot `Replayer(trace, prof, cfg)` (a private,
///     uncached plan) and a replay through a PlanCache-built plan produce
///     bit-identical results — the cache is an optimization, never a
///     behavior change.
///  2. opt-level invariance: plans built at opt_level 0 (verbatim) and 1
///     (fused/eliminated) replay to identical timelines, kernel for kernel.
///  3. plan JSON round-trip: `from_json(plan.to_json(), trace)` re-emits the
///     byte-identical document, carries the same key, and derives the same
///     dependency graph.
///  4. PlanKey stability: the key is a pure function of (trace, prof, cfg),
///     unchanged when the trace itself round-trips through JSON.
///  5. sweep parallelism (check_sweep): a ReplayDriver database sweep is
///     bit-identical at parallelism 1 and 4, and every group finishes with
///     GroupStatus ok — the resilient driver isolates per-group failures
///     instead of throwing, so the oracle must inspect statuses or a sick
///     group would hide inside two equally-degraded sweeps.
///  6. sweep resilience (check_sweep): a journaled sweep with retry knobs
///     engaged but nothing failing is bit-identical to the plain sweep, and
///     a restarted sweep resumes every group from the journal with the same
///     bit-exact weighted mean.
///  7. stream identity: the async multi-stream executor (MYST_ASYNC) issues
///     bit-identical per-stream kernel sequences to the serial walk — same
///     names, same counts per stream, same coverage — and the MYST_ASYNC=0
///     and =1 configs never alias to one PlanKey.  Timings/numerics are
///     out of scope across modes (async reseeds jitter per node); those are
///     checked bitwise *within* each mode by checks 1–5, which run under
///     the case's own randomized async_level.
///
/// Failures carry the generating seed and failing check name, so any report
/// reproduces with `mystique-fuzz --case <seed>`.

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "testing/trace_fuzzer.h"

namespace mystique::core {
struct ReplayResult;
} // namespace mystique::core

namespace mystique::testing {

/// Tally across an oracle's lifetime (the CLI summary line).
struct DiffCounters {
    uint64_t traces = 0;     ///< fuzzed cases examined
    uint64_t checks = 0;     ///< individual differential checks run
    uint64_t mismatches = 0; ///< checks that failed (== failures().size())
    /// FNV-1a over every ReplayResult check_case produced, in corpus order:
    /// iter_us bits, per-stream kernel name/ts/dur, numeric_digest and
    /// coverage counts.  Equal corpora replayed by output-equivalent code
    /// give equal digests, so comparing it across two builds shows that a
    /// refactor changed no replay output.
    uint64_t replay_digest = 0;
};

/// One failed check, reproducible from the seed alone.
struct DiffFailure {
    uint64_t seed = 0;
    std::string check;  ///< e.g. "replay-vs-direct", "opt-level"
    std::string detail; ///< first observed divergence
};

class DifferentialOracle {
  public:
    /// Runs checks 1–4 on one fuzzed case.  An exception thrown anywhere in
    /// a check (plan build refuses the trace, replay throws) is itself a
    /// failure — valid-by-construction traces must never crash the pipeline.
    void check_case(const FuzzedCase& c);

    /// Checks 5–6: sweeps the cases' traces as one database at parallelism 1
    /// and 4 and compares the merged results bitwise (requiring all-ok group
    /// statuses), then proves the resilience layer inert-when-unneeded and
    /// journal resume bit-exact.  Failures are recorded under the first
    /// case's seed (the sweep is a corpus-level property).
    void check_sweep(const std::vector<FuzzedCase>& cases);

    const DiffCounters& counters() const { return counters_; }
    const std::vector<DiffFailure>& failures() const { return failures_; }
    bool ok() const { return failures_.empty(); }

  private:
    /// Counts the check; detail.empty() = pass, else records a failure.
    void finish_check(uint64_t seed, const char* check, std::string detail);

    /// Folds @p r into counters_.replay_digest.
    void digest(const core::ReplayResult& r);

    Fnv1a replay_hash_;
    DiffCounters counters_;
    std::vector<DiffFailure> failures_;
};

} // namespace mystique::testing
