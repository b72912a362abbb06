/// @file
/// Micro-benchmark and regression gate for the plan-level graph optimizer
/// (core/plan_optimizer.h): pointwise-chain fusion must make replay
/// *measurably faster* while staying *bit-identical* to verbatim replay.
///
/// Per workload (rm "## forward:z ##", resnet "## forward ##"):
///
///   1. equivalence — optimized and verbatim replay produce exactly equal
///      per-iteration virtual times, identical kernel timelines
///      (name/stream/ts/dur/flops/bytes; correlation ids legitimately
///      differ: a fused chain is one CPU op), and byte-identical coverage
///      JSON (coverage counts original ops, not fused groups);
///   2. speed — the *marginal* wall-clock cost per replay iteration
///      (slope between two iteration counts, excluding fixed setup) drops
///      ≥1.2x under fusion.
///
/// Plus the amortization contract: a database sweep through a disk-backed
/// PlanCache optimizes on the cold build only — a fresh cache over the same
/// store performs zero builds AND zero re-optimizations.
///
/// Prints one JSON summary line (`micro_fusion_json: {...}`) that
/// scripts/ci.sh surfaces; exits nonzero on any gate failure.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/json.h"
#include "core/plan_cache.h"
#include "core/replay_driver.h"
#include "et/trace_db.h"

namespace {

using namespace mystique;
using bench::now_us;

struct WorkloadCase {
    const char* workload;
    const char* subtrace;
};

constexpr WorkloadCase kCases[] = {
    {"rm", "## forward:z ##"},
    {"resnet", "## forward ##"},
};

core::ReplayConfig
case_config(const WorkloadCase& c, int opt_level)
{
    core::ReplayConfig cfg = bench::bench_replay_config();
    cfg.filter.subtrace_root = c.subtrace;
    cfg.opt_level = opt_level; // explicit: immune to the MYST_OPT_LEVEL env
    return cfg;
}

constexpr int kLowIters = 8;
constexpr int kHighIters = 56;

/// One timed replay at @p iterations.
double
timed_run_us(const std::shared_ptr<const core::ReplayPlan>& plan,
             core::ReplayConfig cfg, int iterations)
{
    cfg.collect_profiler = false; // measure dispatch, not event recording
    cfg.iterations = iterations;
    const double t0 = now_us();
    core::Replayer(plan, cfg).run();
    return now_us() - t0;
}

struct SlopePair {
    double verb;
    double opt;
};

/// Marginal wall-clock cost of one replay iteration for the verbatim and
/// optimized plans: slope between two iteration counts, so fixed per-run
/// costs (TensorManager analyze, IR instantiation, session setup) cancel
/// out.  All four raw timings are sampled *interleaved* across kReps rounds
/// and each keeps its per-rep minimum — raw-timing noise is one-sided
/// (contention only ever adds time), so best-of per timing is the faithful
/// estimator, and the slope of the best-case timings is the quiet-machine
/// slope.  (Taking min or median of per-rep *slopes* is not robust: a slope
/// is a difference, so a preempted low-iteration run yields a spuriously
/// small sample.)  Two back-to-back measurement phases made the gate flaky
/// under drifting background load; interleaving keeps both plans under the
/// same conditions.
SlopePair
paired_iter_slopes(const std::shared_ptr<const core::ReplayPlan>& plan_verb,
                   const core::ReplayConfig& cfg_verb,
                   const std::shared_ptr<const core::ReplayPlan>& plan_opt,
                   const core::ReplayConfig& cfg_opt)
{
    constexpr int kReps = 13;
    double verb_low = 1e300, verb_high = 1e300;
    double opt_low = 1e300, opt_high = 1e300;
    for (int r = 0; r < kReps; ++r) {
        verb_low = std::min(verb_low, timed_run_us(plan_verb, cfg_verb, kLowIters));
        verb_high = std::min(verb_high, timed_run_us(plan_verb, cfg_verb, kHighIters));
        opt_low = std::min(opt_low, timed_run_us(plan_opt, cfg_opt, kLowIters));
        opt_high = std::min(opt_high, timed_run_us(plan_opt, cfg_opt, kHighIters));
    }
    return {(verb_high - verb_low) / (kHighIters - kLowIters),
            (opt_high - opt_low) / (kHighIters - kLowIters)};
}

bool
same_kernel_timeline(const prof::ProfilerTrace& a, const prof::ProfilerTrace& b)
{
    if (a.kernels().size() != b.kernels().size())
        return false;
    for (std::size_t i = 0; i < a.kernels().size(); ++i) {
        const prof::KernelEvent& x = a.kernels()[i];
        const prof::KernelEvent& y = b.kernels()[i];
        if (x.name != y.name || x.stream != y.stream || x.ts != y.ts ||
            x.dur != y.dur || x.flops != y.flops || x.bytes != y.bytes ||
            x.kind != y.kind || x.category != y.category)
            return false;
    }
    return true;
}

} // namespace

int
main()
{
    namespace fs = std::filesystem;
    bench::print_header("micro_fusion: optimized vs verbatim replay plans");

    bool ok = true;
    Json j = Json::object();

    wl::WorkloadOptions tiny;
    tiny.preset = wl::Preset::kTiny;
    wl::RunConfig run_cfg;
    run_cfg.mode = fw::ExecMode::kShapeOnly;
    run_cfg.warmup_iterations = 1;
    run_cfg.iterations = 2;

    et::ExecutionTrace rm_trace; // kept for the sweep gate below

    for (const WorkloadCase& c : kCases) {
        const wl::RunResult traced = wl::run_original(c.workload, tiny, run_cfg);
        const et::ExecutionTrace& trace = traced.rank0().trace;
        const prof::ProfilerTrace& prof = traced.rank0().prof;
        if (std::string(c.workload) == "rm")
            rm_trace = trace;

        const core::ReplayConfig cfg_opt = case_config(c, 1);
        const core::ReplayConfig cfg_verb = case_config(c, 0);
        const auto plan_opt = core::ReplayPlan::build(trace, &prof, cfg_opt);
        const auto plan_verb = core::ReplayPlan::build(trace, &prof, cfg_verb);

        const core::OptimizerStats& os = plan_opt->optimizer_stats();
        std::printf("  %-8s chains=%lld ops_fused=%lld eliminated=%lld "
                    "simplified=%lld optimize_us=%.1f\n",
                    c.workload, static_cast<long long>(os.chains_formed),
                    static_cast<long long>(os.ops_fused),
                    static_cast<long long>(os.ops_eliminated),
                    static_cast<long long>(os.ops_simplified), os.optimize_us);
        if (os.chains_formed < 1 || os.ops_fused < 2) {
            std::printf("FAIL: %s: optimizer formed no chains on a workload "
                        "built to have them\n",
                        c.workload);
            ok = false;
        }
        if (!plan_verb->fused_groups().empty()) {
            std::printf("FAIL: %s: opt_level=0 plan carries fused groups\n",
                        c.workload);
            ok = false;
        }

        // ---- 1. equivalence ------------------------------------------------
        const core::ReplayResult ro = core::Replayer(plan_opt, cfg_opt).run();
        const core::ReplayResult rv = core::Replayer(plan_verb, cfg_verb).run();
        if (ro.iter_us != rv.iter_us) {
            std::printf("FAIL: %s: optimized iteration times diverge from "
                        "verbatim (%.6f vs %.6f us mean)\n",
                        c.workload, ro.mean_iter_us, rv.mean_iter_us);
            ok = false;
        }
        if (!same_kernel_timeline(ro.prof, rv.prof)) {
            std::printf("FAIL: %s: optimized kernel timeline diverges from "
                        "verbatim (%zu vs %zu kernels)\n",
                        c.workload, ro.prof.kernels().size(),
                        rv.prof.kernels().size());
            ok = false;
        }
        const std::string cov_opt = plan_opt->to_json().at("coverage").value().dump();
        const std::string cov_verb = plan_verb->to_json().at("coverage").value().dump();
        if (cov_opt != cov_verb) {
            std::printf("FAIL: %s: coverage reports differ between optimized "
                        "and verbatim plans\n",
                        c.workload);
            ok = false;
        }

        // ---- 2. speed ------------------------------------------------------
        // Up to kAttempts measurement windows: the estimator is robust
        // within a window, but sustained host-side contention (VM steal
        // time) can pollute a whole window; a later quiet window proves the
        // speedup is real.  Only exhausting every window is a failure.
        constexpr int kAttempts = 3;
        SlopePair slopes{0.0, 0.0};
        double speedup = 0.0;
        for (int attempt = 0; attempt < kAttempts; ++attempt) {
            slopes = paired_iter_slopes(plan_verb, cfg_verb, plan_opt, cfg_opt);
            speedup = slopes.opt > 0.0 ? slopes.verb / slopes.opt : 1e9;
            if (speedup >= 1.2)
                break;
            std::printf("  %-8s attempt %d: %.2fx < 1.2x — remeasuring "
                        "(loaded window?)\n",
                        c.workload, attempt + 1, speedup);
        }
        const double slope_verb = slopes.verb;
        const double slope_opt = slopes.opt;
        std::printf("  %-8s iter: verbatim %.2f us, optimized %.2f us "
                    "(%.2fx), virtual %.2f us\n",
                    c.workload, slope_verb, slope_opt, speedup, ro.mean_iter_us);
        if (speedup < 1.2) {
            std::printf("FAIL: %s: fused replay is only %.2fx faster than "
                        "verbatim (need >=1.2x)\n",
                        c.workload, speedup);
            ok = false;
        }

        Json cj = Json::object();
        cj.set("chains_formed", Json(os.chains_formed));
        cj.set("ops_fused", Json(os.ops_fused));
        cj.set("verbatim_iter_us", Json(slope_verb));
        cj.set("optimized_iter_us", Json(slope_opt));
        cj.set("speedup", Json(speedup));
        j.set(c.workload, std::move(cj));
    }

    // ---- 3. amortization: optimize once, never re-optimize -----------------
    const std::string dir =
        (fs::temp_directory_path() / ("myst_micro_fusion_" + std::to_string(::getpid())))
            .string();
    struct DirGuard {
        std::string d;
        ~DirGuard()
        {
            std::error_code ec;
            fs::remove_all(d, ec);
        }
    } guard{dir};

    et::TraceDatabase db;
    db.add(rm_trace);
    core::ReplayConfig sweep_cfg = case_config(kCases[0], 1);

    core::PlanCache cold_cache(16);
    cold_cache.set_store_dir(dir);
    core::ReplayDriver cold_driver(sweep_cfg, &cold_cache);
    cold_driver.replay_groups(db);
    cold_cache.flush_writebacks();
    const core::PlanCacheStats cold = cold_cache.stats();
    if (cold.builds != 1 || cold.opt_chains_formed < 1) {
        std::printf("FAIL: cold sweep accounting off (builds=%llu chains=%llu)\n",
                    static_cast<unsigned long long>(cold.builds),
                    static_cast<unsigned long long>(cold.opt_chains_formed));
        ok = false;
    }

    core::PlanCache warm_cache(16); // fresh cache over the same store ≈ restart
    warm_cache.set_store_dir(dir);
    core::ReplayDriver warm_driver(sweep_cfg, &warm_cache);
    const core::DatabaseReplayResult warm_sweep = warm_driver.replay_groups(db);
    const core::PlanCacheStats warm = warm_sweep.cache;
    std::printf("  warm sweep: builds=%llu disk_hits=%llu re-optimizations=%llu\n",
                static_cast<unsigned long long>(warm.builds),
                static_cast<unsigned long long>(warm.disk_hits),
                static_cast<unsigned long long>(warm.opt_chains_formed));
    if (warm.builds != 0 || warm.disk_hits != 1) {
        std::printf("FAIL: warm two-tier sweep performed %llu builds (want 0, "
                    "served from disk)\n",
                    static_cast<unsigned long long>(warm.builds));
        ok = false;
    }
    if (warm.opt_chains_formed != 0 || warm.opt_ops_fused != 0 ||
        warm.opt_time_us != 0.0) {
        std::printf("FAIL: warm sweep re-optimized (chains=%llu fused=%llu "
                    "time=%.1f us; want all zero)\n",
                    static_cast<unsigned long long>(warm.opt_chains_formed),
                    static_cast<unsigned long long>(warm.opt_ops_fused),
                    warm.opt_time_us);
        ok = false;
    }

    std::printf("micro_fusion_json: %s\n", j.dump().c_str());
    if (!ok)
        return 1;
    std::printf("OK: fused replay is bit-identical to verbatim, >=1.2x faster "
                "per iteration, and optimized exactly once across the two-tier "
                "sweep\n");
    return 0;
}
