#include "testing/differential.h"

#include <exception>
#include <filesystem>
#include <map>
#include <sstream>

#include <unistd.h>

#include "core/plan_cache.h"
#include "core/replay_driver.h"
#include "core/replayer.h"
#include "et/trace_db.h"

namespace mystique::testing {

namespace {

using core::PlanCache;
using core::ReplayConfig;
using core::ReplayDriver;
using core::Replayer;
using core::ReplayResult;

/// Kernel events of @p r grouped per stream, preserving launch order within
/// each stream.  Ordered by stream id so comparisons never depend on which
/// stream happened to launch first.
std::map<int, std::vector<const prof::KernelEvent*>>
kernels_by_stream(const ReplayResult& r)
{
    std::map<int, std::vector<const prof::KernelEvent*>> by_stream;
    for (const prof::KernelEvent& ev : r.prof.kernels())
        by_stream[ev.stream].push_back(&ev);
    return by_stream;
}

/// Bitwise ReplayResult comparison; returns "" on equality, else the first
/// divergence.  Exact double equality is intentional — see the file comment.
///
/// Kernel events are compared as *per-stream* (name, ts, dur) sequences plus
/// the total count, not as one global sequence: the async executor's
/// cross-stream interleaving is schedule-dependent (opt_level changes the
/// unit structure and therefore which stream's kernel is recorded first),
/// while per-stream order and timing are the invariants the executor
/// actually promises.  For serial replays the two formulations are
/// equivalent, so nothing is weakened for the pre-async checks.
///
/// @param compare_digest  when false, the numeric digests are not compared —
///   used by the opt-level check, where dead-code elimination legitimately
///   skips computing outputs nothing reads, so final bindings differ across
///   opt levels by design while timelines must not.
std::string
compare_results(const ReplayResult& a, const ReplayResult& b, bool compare_digest = true)
{
    std::ostringstream why;
    if (a.iter_us != b.iter_us) {
        why << "iter_us diverge (" << a.iter_us.size() << " vs " << b.iter_us.size()
            << " iterations";
        for (std::size_t i = 0; i < a.iter_us.size() && i < b.iter_us.size(); ++i) {
            if (a.iter_us[i] != b.iter_us[i]) {
                why << "; first at iter " << i << ": " << a.iter_us[i] << " vs "
                    << b.iter_us[i];
                break;
            }
        }
        why << ")";
        return why.str();
    }
    if (a.mean_iter_us != b.mean_iter_us)
        return "mean_iter_us diverges";
    if (a.prof.kernels().size() != b.prof.kernels().size()) {
        why << "kernel count " << a.prof.kernels().size() << " vs "
            << b.prof.kernels().size();
        return why.str();
    }
    const auto sa = kernels_by_stream(a);
    const auto sb = kernels_by_stream(b);
    if (sa.size() != sb.size()) {
        why << "stream count " << sa.size() << " vs " << sb.size();
        return why.str();
    }
    for (auto ia = sa.begin(), ib = sb.begin(); ia != sa.end(); ++ia, ++ib) {
        if (ia->first != ib->first) {
            why << "stream sets diverge (s" << ia->first << " vs s" << ib->first << ")";
            return why.str();
        }
        if (ia->second.size() != ib->second.size()) {
            why << "stream " << ia->first << " kernel count " << ia->second.size()
                << " vs " << ib->second.size();
            return why.str();
        }
        for (std::size_t i = 0; i < ia->second.size(); ++i) {
            const prof::KernelEvent& x = *ia->second[i];
            const prof::KernelEvent& y = *ib->second[i];
            if (x.name != y.name || x.ts != y.ts || x.dur != y.dur) {
                why << "stream " << ia->first << " kernel " << i << " diverges: "
                    << x.name << "@" << x.ts << "+" << x.dur << " vs " << y.name << "@"
                    << y.ts << "+" << y.dur;
                return why.str();
            }
        }
    }
    if (a.coverage.selected_ops != b.coverage.selected_ops ||
        a.coverage.supported_ops != b.coverage.supported_ops)
        return "coverage diverges";
    if (compare_digest && a.numeric_digest != b.numeric_digest)
        return "numeric digest diverges";
    return {};
}

/// Mode-independent comparison for the stream-identity check (serial vs
/// async replay of one case): both executors must issue bit-identical
/// per-stream kernel *name* sequences, equal per-stream and total counts,
/// equal iteration counts and equal coverage.  Timestamps, durations and
/// numeric digests are deliberately excluded here: async mode reseeds the
/// RNG per node (launch jitter and rng-consuming ops draw different values
/// than the serial sequential stream), so timing and numerics diverge across
/// modes by design — the schedule-shaped facts must not.
std::string
compare_stream_sequences(const ReplayResult& serial, const ReplayResult& overlapped)
{
    std::ostringstream why;
    if (serial.iter_us.size() != overlapped.iter_us.size()) {
        why << "iteration count " << serial.iter_us.size() << " vs "
            << overlapped.iter_us.size();
        return why.str();
    }
    if (serial.prof.kernels().size() != overlapped.prof.kernels().size()) {
        why << "kernel count " << serial.prof.kernels().size() << " vs "
            << overlapped.prof.kernels().size();
        return why.str();
    }
    const auto ss = kernels_by_stream(serial);
    const auto so = kernels_by_stream(overlapped);
    if (ss.size() != so.size()) {
        why << "stream count " << ss.size() << " vs " << so.size();
        return why.str();
    }
    for (auto is = ss.begin(), io = so.begin(); is != ss.end(); ++is, ++io) {
        if (is->first != io->first) {
            why << "stream sets diverge (s" << is->first << " vs s" << io->first << ")";
            return why.str();
        }
        if (is->second.size() != io->second.size()) {
            why << "stream " << is->first << " kernel count " << is->second.size()
                << " vs " << io->second.size();
            return why.str();
        }
        for (std::size_t i = 0; i < is->second.size(); ++i) {
            if (is->second[i]->name != io->second[i]->name) {
                why << "stream " << is->first << " kernel " << i << " diverges: "
                    << is->second[i]->name << " vs " << io->second[i]->name;
                return why.str();
            }
        }
    }
    if (serial.coverage.selected_ops != overlapped.coverage.selected_ops ||
        serial.coverage.supported_ops != overlapped.coverage.supported_ops)
        return "coverage diverges";
    return {};
}

const prof::ProfilerTrace*
prof_of(const FuzzedCase& c)
{
    return c.use_prof ? &c.prof : nullptr;
}

/// "" when every group of @p r finished ok; else the first sick group's
/// status and error, labelled with @p which sweep it came from.
std::string
all_groups_ok(const core::DatabaseReplayResult& r, const char* which)
{
    for (std::size_t i = 0; i < r.groups.size(); ++i) {
        const core::GroupReplayResult& g = r.groups[i];
        if (g.status == core::GroupStatus::kOk)
            continue;
        std::ostringstream why;
        why << which << " sweep group " << i << " is " << core::to_string(g.status);
        if (!g.error.empty())
            why << ": " << g.error;
        return why.str();
    }
    return {};
}

} // namespace

void
DifferentialOracle::finish_check(uint64_t seed, const char* check, std::string detail)
{
    ++counters_.checks;
    if (detail.empty())
        return;
    ++counters_.mismatches;
    failures_.push_back({seed, check, std::move(detail)});
}

void
DifferentialOracle::digest(const ReplayResult& r)
{
    replay_hash_.mix_pod(static_cast<uint64_t>(r.iter_us.size()));
    for (const double t : r.iter_us)
        replay_hash_.mix_pod(t);
    for (const auto& [stream, kernels] : kernels_by_stream(r)) {
        replay_hash_.mix_pod(stream);
        replay_hash_.mix_pod(static_cast<uint64_t>(kernels.size()));
        for (const prof::KernelEvent* ev : kernels) {
            replay_hash_.mix(ev->name);
            replay_hash_.mix_pod(ev->ts);
            replay_hash_.mix_pod(ev->dur);
        }
    }
    replay_hash_.mix_pod(r.numeric_digest);
    replay_hash_.mix_pod(r.coverage.selected_ops);
    replay_hash_.mix_pod(r.coverage.supported_ops);
    counters_.replay_digest = replay_hash_.value();
}

void
DifferentialOracle::check_case(const FuzzedCase& c)
{
    ++counters_.traces;

    // 4. PlanKey stability: pure function of inputs, invariant under a trace
    // JSON round-trip (the fingerprint contract of et/trace.h).
    finish_check(c.seed, "plan-key", [&]() -> std::string {
        try {
            const core::PlanKey k1 = core::plan_key(c.trace, prof_of(c), c.cfg);
            const core::PlanKey k2 = core::plan_key(c.trace, prof_of(c), c.cfg);
            if (k1 != k2)
                return "plan_key not deterministic across calls";
            const et::ExecutionTrace round = et::ExecutionTrace::from_json(c.trace.to_json());
            if (round.structural_fingerprint() != c.trace.structural_fingerprint())
                return "structural fingerprint changed across trace JSON round-trip";
            if (core::plan_key(round, prof_of(c), c.cfg) != k1)
                return "plan key changed across trace JSON round-trip";
            return {};
        } catch (const std::exception& e) {
            return std::string("threw: ") + e.what();
        }
    }());

    // 3. Plan JSON round-trip fidelity: byte-identical re-serialization, an
    // unchanged key, and the dependency graph restore derives (the document
    // does not carry it) equal to the built one.
    finish_check(c.seed, "plan-roundtrip", [&]() -> std::string {
        try {
            const auto plan = core::ReplayPlan::build(c.trace, prof_of(c), c.cfg);
            const Json j = plan->to_json();
            const auto restored = core::ReplayPlan::from_json(j, c.trace);
            if (restored->key() != plan->key())
                return "restored plan carries a different key";
            if (restored->to_json().dump() != j.dump())
                return "restored plan re-serializes differently";
            if (restored->dep_graph() != plan->dep_graph())
                return "restored plan derives a different dependency graph";
            return {};
        } catch (const std::exception& e) {
            return std::string("threw: ") + e.what();
        }
    }());

    // 1. Replay-vs-direct: private one-shot plan vs PlanCache-built plan.
    // The cache is private with the disk tier pinned off, so an ambient
    // MYST_PLAN_CACHE_DIR cannot leak foreign entries into the comparison.
    finish_check(c.seed, "replay-vs-direct", [&]() -> std::string {
        try {
            const ReplayResult direct = Replayer(c.trace, prof_of(c), c.cfg).run();
            digest(direct);
            PlanCache cache(4);
            cache.set_store_dir("");
            const auto plan = cache.get_or_build(c.trace, prof_of(c), c.cfg);
            const ReplayResult cached = Replayer(plan, c.cfg).run();
            digest(cached);
            return compare_results(direct, cached);
        } catch (const std::exception& e) {
            return std::string("threw: ") + e.what();
        }
    }());

    // 2. Opt-level invariance: fused/eliminated plans replay the verbatim
    // timeline, kernel for kernel (plan_optimizer contract).
    finish_check(c.seed, "opt-level", [&]() -> std::string {
        try {
            ReplayConfig cfg0 = c.cfg;
            cfg0.opt_level = 0;
            ReplayConfig cfg1 = c.cfg;
            cfg1.opt_level = 1;
            const ReplayResult r0 = Replayer(c.trace, prof_of(c), cfg0).run();
            digest(r0);
            const ReplayResult r1 = Replayer(c.trace, prof_of(c), cfg1).run();
            digest(r1);
            // Digests excluded: dead-code elimination skips computing
            // outputs nothing reads, so final bindings differ across opt
            // levels by design while the timelines must not.
            std::string diff = compare_results(r0, r1, /*compare_digest=*/false);
            if (!diff.empty())
                diff = "opt_level 0 vs 1: " + diff;
            return diff;
        } catch (const std::exception& e) {
            return std::string("threw: ") + e.what();
        }
    }());

    // 7. Stream identity: the async executor issues every stream's kernel
    // sequence exactly as the serial walk does, and the executor mode is
    // part of the plan's identity — an MYST_ASYNC=0 plan and an =1 plan must
    // never alias in the PlanCache (they carry different dependency-graph
    // expectations and different jitter seeding).
    finish_check(c.seed, "stream-identity", [&]() -> std::string {
        try {
            ReplayConfig serial_cfg = c.cfg;
            serial_cfg.async_level = 0;
            ReplayConfig async_cfg = c.cfg;
            async_cfg.async_level = 1;
            if (serial_cfg.fingerprint() == async_cfg.fingerprint())
                return "MYST_ASYNC=0 and =1 configs alias to one fingerprint";
            if (core::plan_key(c.trace, prof_of(c), serial_cfg) ==
                core::plan_key(c.trace, prof_of(c), async_cfg))
                return "MYST_ASYNC=0 and =1 plans alias to one PlanKey";
            const ReplayResult rs = Replayer(c.trace, prof_of(c), serial_cfg).run();
            digest(rs);
            const ReplayResult ra = Replayer(c.trace, prof_of(c), async_cfg).run();
            digest(ra);
            std::string diff = compare_stream_sequences(rs, ra);
            if (!diff.empty())
                diff = "serial vs async: " + diff;
            return diff;
        } catch (const std::exception& e) {
            return std::string("threw: ") + e.what();
        }
    }());
}

void
DifferentialOracle::check_sweep(const std::vector<FuzzedCase>& cases)
{
    if (cases.empty())
        return;
    et::TraceDatabase db;
    std::vector<const prof::ProfilerTrace*> profs;
    for (const FuzzedCase& c : cases) {
        db.add(c.trace);
        profs.push_back(prof_of(c));
    }
    for (const int async_level : {0, 1})
        check_sweep_at(db, profs, cases.front().seed, async_level);
}

void
DifferentialOracle::check_sweep_at(const et::TraceDatabase& db,
                                   const std::vector<const prof::ProfilerTrace*>& profs,
                                   uint64_t seed, int async_level)
{
    // One config for the whole sweep (the driver replays every group under
    // it), both levels pinned so the corpus never depends on MYST_OPT_LEVEL
    // or MYST_ASYNC; the per-case configs already got their coverage in
    // check_case.
    const ReplayConfig cfg{.mode = fw::ExecMode::kShapeOnly, .warmup_iterations = 1,
                           .iterations = 2, .opt_level = 1, .async_level = async_level};
    const auto tagged = [async_level](std::string detail) {
        return detail.empty() ? detail
                              : "async_level " + std::to_string(async_level) + ": " + detail;
    };

    finish_check(seed, "sweep-parallelism", tagged([&]() -> std::string {
        try {
            PlanCache cache_seq(64), cache_par(64);
            cache_seq.set_store_dir("");
            cache_par.set_store_dir("");
            ReplayDriver seq(cfg, &cache_seq, 1);
            ReplayDriver par(cfg, &cache_par, 4);
            // Pin journaling off (an ambient MYST_SWEEP_JOURNAL would let a
            // prior run's journal substitute for replaying).
            seq.set_journal_dir(std::string());
            par.set_journal_dir(std::string());
            const auto a = seq.replay_groups(db, db.size(), &profs);
            const auto b = par.replay_groups(db, db.size(), &profs);

            // Valid-by-construction traces must sweep clean: the resilient
            // driver isolates failures instead of throwing, so a sick group
            // would otherwise hide inside a "passing" comparison of two
            // equally-degraded sweeps.  (This also makes an armed sweep.group
            // fault a deterministic CLI failure — the fuzz-cli tests rely on
            // that.)
            std::string sick = all_groups_ok(a, "K=1");
            if (sick.empty())
                sick = all_groups_ok(b, "K=4");
            if (!sick.empty())
                return sick;

            if (a.weighted_mean_iter_us != b.weighted_mean_iter_us)
                return "weighted mean diverges between K=1 and K=4";
            if (a.groups.size() != b.groups.size())
                return "group count diverges between K=1 and K=4";
            for (std::size_t i = 0; i < a.groups.size(); ++i) {
                if (a.groups[i].group.representative() !=
                    b.groups[i].group.representative())
                    return "group " + std::to_string(i) + " representative diverges";
                std::string diff =
                    compare_results(a.groups[i].result, b.groups[i].result);
                if (!diff.empty())
                    return "group " + std::to_string(i) + " (K=1 vs K=4): " + diff;
            }
            return {};
        } catch (const std::exception& e) {
            return std::string("threw: ") + e.what();
        }
    }()));

    // 6. Sweep resilience: with the resilience knobs engaged but nothing
    // failing, a journaled sweep is bit-identical to the plain one, and a
    // restarted sweep resumes every group from the journal — restoring the
    // same bit-exact weighted mean without replaying anything.
    finish_check(seed, "sweep-resilience", tagged([&]() -> std::string {
        namespace fs = std::filesystem;
        const fs::path dir =
            fs::temp_directory_path() /
            ("mystique-diff-journal-" + std::to_string(::getpid()) + "-" +
             std::to_string(seed));
        std::error_code ec;
        fs::remove_all(dir, ec);
        fs::create_directories(dir);
        struct DirCleanup {
            const fs::path& dir;
            ~DirCleanup()
            {
                std::error_code ec2;
                fs::remove_all(dir, ec2);
            }
        } cleanup{dir};
        try {
            PlanCache cache_plain(64), cache_res(64), cache_resume(64);
            cache_plain.set_store_dir("");
            cache_res.set_store_dir("");
            cache_resume.set_store_dir("");

            ReplayDriver plain(cfg, &cache_plain, 1);
            plain.set_journal_dir(std::string());
            const auto want = plain.replay_groups(db, db.size(), &profs);

            ReplayDriver resilient(cfg, &cache_res, 4);
            resilient.set_journal_dir(dir.string());
            resilient.set_max_retries(2);
            const auto got = resilient.replay_groups(db, db.size(), &profs);

            std::string sick = all_groups_ok(got, "resilient");
            if (!sick.empty())
                return sick;
            if (got.retries != 0)
                return "no-fault resilient sweep consumed retries";
            if (got.weighted_mean_iter_us != want.weighted_mean_iter_us)
                return "resilience knobs changed the weighted mean";
            if (got.groups.size() != want.groups.size())
                return "resilience knobs changed the group count";
            for (std::size_t i = 0; i < got.groups.size(); ++i) {
                std::string diff =
                    compare_results(want.groups[i].result, got.groups[i].result);
                if (!diff.empty())
                    return "group " + std::to_string(i) + " (plain vs resilient): " + diff;
            }

            ReplayDriver resumed(cfg, &cache_resume, 1);
            resumed.set_journal_dir(dir.string());
            const auto again = resumed.replay_groups(db, db.size(), &profs);
            if (again.journal_resumed != again.groups.size())
                return "restarted sweep replayed instead of resuming (" +
                       std::to_string(again.journal_resumed) + "/" +
                       std::to_string(again.groups.size()) + " from journal)";
            if (again.weighted_mean_iter_us != want.weighted_mean_iter_us)
                return "journal-restored weighted mean is not bit-identical";
            return {};
        } catch (const std::exception& e) {
            return std::string("threw: ") + e.what();
        }
    }()));
}

} // namespace mystique::testing
