/// @file
/// The pipeline benchmark: host wall-clock time of the public entry points a
/// fleet operator and a benchmark author call — fleet ingest, plan build,
/// plan-store reuse, replay and packaging.
///
/// Two modes, run as separate processes so the measuring process never holds
/// the input generator's memory:
///
///   pipebench gen --workload W --seed S --out DIR
///       Records the workload's inputs with the program's own recorders (the
///       trace fuzzer and the workload harness) and writes them to DIR.
///
///   pipebench run --workload W --inputs DIR --work DIR --seconds T
///                 [--seed S] [--trace DIR]
///       Loads the inputs, computes reference outputs, sets the workload up
///       several times (setup_s), runs jobs in a closed loop for T seconds
///       (units_per_s, peak_rss_mb), and with --trace runs one more
///       job under spans plus a serial per-group stage decomposition, writing
///       DIR/W.trace.json (Chrome trace) and DIR/W.layers.json.
///
/// Simulated (virtual) microseconds are the program's output: every job's
/// results must be bit-identical to the reference, and they are reported
/// only as a digest and `sim.virtual_iter_us`, never as speed.  The last
/// stdout line is one JSON object {correct, attempted, failed, metrics}.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fs_util.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/stats.h"
#include "core/codegen.h"
#include "core/plan_cache.h"
#include "core/plan_optimizer.h"
#include "core/plan_store.h"
#include "core/reconstruction.h"
#include "core/replay_driver.h"
#include "core/replay_plan.h"
#include "core/replayer.h"
#include "core/selection.h"
#include "core/tensor_manager.h"
#include "device/platform.h"
#include "et/trace.h"
#include "et/trace_db.h"
#include "framework/session.h"
#include "profiler/profiler.h"
#include "testing/trace_fuzzer.h"
#include "tracer.h"
#include "workloads/harness.h"

namespace {

namespace fs = std::filesystem;
using namespace mystique;
using pipebench::now_s;
using pipebench::span;
using pipebench::Tracer;

/// Fresh set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Timed jobs run until --seconds have elapsed and at least this many ran.
constexpr int kMinJobs = 3;

/// Fleet shape: distinct fuzzer programs, program i saved
/// 1 + floor(8 / (1 + floor(i / 8))) times — a Zipf-like population of
/// 960 ET files where a few programs dominate and most appear once.
constexpr int kFleetPrograms = 800;
/// Fuzzer programs packaged by the package workload (after the fleet's).
constexpr int kPackageFuzzCases = 64;
/// Node count per fuzzer program that generated inputs are steered to
/// (about the fuzzer's own mean), so every seed yields the same amount of
/// work; see balanced_cases().
constexpr double kTargetNodesPerProgram = 45.0;

/// Ordered name → (value, unit) list; set() overwrites.  The binary reports
/// only the metrics a workload reaches; run.py checks every name and unit
/// against BENCHMARK.json and reports the per-layer metrics a workload does
/// not reach as 0.
class Metrics {
  public:
    void set(const std::string& name, double value, const std::string& unit)
    {
        for (auto& m : items_) {
            if (m.name == name) {
                m.value = value;
                m.unit = unit;
                return;
            }
        }
        items_.push_back({name, value, unit});
    }
    Json to_json() const
    {
        Json j = Json::object();
        for (const auto& m : items_) {
            Json v = Json::object();
            v.set("value", Json(m.value));
            v.set("unit", Json(m.unit));
            j.set(m.name, std::move(v));
        }
        return j;
    }
    void print() const
    {
        for (const auto& m : items_)
            std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }

  private:
    struct Item {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items_;
};

/// Driver workers: one per core but one, which the plan cache's single
/// background writeback thread takes — nproc threads in all.
std::size_t
worker_count()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n > 1 ? n - 1 : 1;
}

/// Shape-only replay on the A100 model.  The optimizer and async executor
/// are pinned on so an ambient MYST_OPT_LEVEL / MYST_ASYNC cannot change
/// what is measured.
core::ReplayConfig
replay_config(int iterations)
{
    core::ReplayConfig cfg;
    cfg.platform = "A100";
    cfg.mode = fw::ExecMode::kShapeOnly;
    cfg.warmup_iterations = 1;
    cfg.iterations = iterations;
    cfg.seed = 4050;
    cfg.opt_level = 1;
    cfg.async_level = 1;
    return cfg;
}

/// Pins the driver's resilience knobs (no retries, no journal), which would
/// otherwise follow MYST_SWEEP_* from the environment.
void
pin_knobs(core::ReplayDriver& driver)
{
    driver.set_max_retries(0);
    driver.set_journal_dir(std::string());
}

/// A session configured like a ReplayDriver worker's.
std::unique_ptr<fw::Session>
replay_session(const core::ReplayConfig& cfg)
{
    fw::SessionOptions opts;
    opts.platform = dev::platform(cfg.platform);
    opts.mode = cfg.mode;
    opts.seed = cfg.seed;
    opts.dispatch = fw::DispatchProfile::replay();
    return std::make_unique<fw::Session>(opts);
}

std::string
key_hex(const core::PlanKey& k)
{
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "%016" PRIx64 "-%016" PRIx64 "-%016" PRIx64 "-%016" PRIx64 "-%c", k.trace_fp,
                  k.supported_fp, k.config_fp, k.prof_fp, k.has_prof ? 'p' : 'n');
    return buf;
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/// Non-skipped ops of a plan: the original ops one replay iteration runs
/// (fused members count individually, so fusion reads as throughput).
std::size_t
replayed_ops(const core::ReplayPlan& plan)
{
    return static_cast<std::size_t>(
        std::count_if(plan.ops().begin(), plan.ops().end(), [](const core::ReconstructedOp& op) {
            return op.kind != core::ReconstructedOp::Kind::kSkipped;
        }));
}

/// Bitwise digest of a sweep's outputs: every group's identity, status and
/// per-iteration virtual times, plus the population-weighted mean.
uint64_t
sweep_digest(const core::DatabaseReplayResult& r)
{
    Fnv1a h;
    for (const core::GroupReplayResult& g : r.groups) {
        h.mix_pod(g.group.fingerprint);
        h.mix_pod(g.status);
        for (double us : g.result.iter_us)
            h.mix_pod(us);
    }
    h.mix_pod(r.weighted_mean_iter_us);
    return h.value();
}

uint64_t
iter_digest(const std::vector<double>& iter_us)
{
    Fnv1a h;
    for (double us : iter_us)
        h.mix_pod(us);
    return h.value();
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/// A trace and its profiler trace as loaded from the generated inputs.
struct TracePair {
    std::shared_ptr<const et::ExecutionTrace> trace;
    prof::ProfilerTrace prof;
};

void
save_pair(const fs::path& dir, const std::string& stem, const et::ExecutionTrace& trace,
          const prof::ProfilerTrace& prof)
{
    trace.save((dir / (stem + ".et.json")).string());
    prof.to_json().dump_file((dir / (stem + ".prof.json")).string());
}

/// Every `<stem>.et.json` in @p dir, in file-name order; each has a
/// `<stem>.prof.json` beside it.
std::vector<fs::path>
input_traces(const fs::path& dir)
{
    std::vector<fs::path> ets;
    for (const auto& entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > 8 && name.ends_with(".et.json"))
            ets.push_back(entry.path());
    }
    if (ets.empty())
        throw std::runtime_error("no inputs under " + dir.string());
    std::sort(ets.begin(), ets.end());
    return ets;
}

prof::ProfilerTrace
load_prof(const fs::path& et_path)
{
    std::string prof_path = et_path.string();
    prof_path.replace(prof_path.size() - 8, 8, ".prof.json");
    return prof::ProfilerTrace::from_json(Json::parse_file(prof_path));
}

std::vector<TracePair>
load_pairs(const fs::path& dir)
{
    std::vector<TracePair> out;
    for (const fs::path& et_path : input_traces(dir)) {
        TracePair p;
        p.trace = std::make_shared<const et::ExecutionTrace>(
            et::ExecutionTrace::load(et_path.string()));
        p.prof = load_prof(et_path);
        out.push_back(std::move(p));
    }
    return out;
}

/// FNV over every input trace's structural fingerprint, in input order:
/// equal digests mean two runs measured identical inputs.
uint64_t
input_digest(const std::vector<std::shared_ptr<const et::ExecutionTrace>>& traces)
{
    Fnv1a h;
    for (const auto& t : traces)
        h.mix_pod(t->structural_fingerprint());
    return h.value();
}

std::vector<std::shared_ptr<const et::ExecutionTrace>>
traces_of(const std::vector<TracePair>& pairs)
{
    std::vector<std::shared_ptr<const et::ExecutionTrace>> out;
    for (const TracePair& p : pairs)
        out.push_back(p.trace);
    return out;
}

// ------------------------------------------------------------------ inputs

/// The paper models run through the original-workload harness, shape-only,
/// recording one iteration's ET and profiler trace.
wl::RankResult
record_model(const std::string& name, wl::Preset preset, uint64_t seed)
{
    wl::RunConfig cfg;
    cfg.mode = fw::ExecMode::kShapeOnly;
    cfg.warmup_iterations = 1;
    cfg.iterations = 1;
    cfg.seed = seed;
    wl::WorkloadOptions opts;
    opts.preset = preset;
    wl::RunResult run = wl::run_original(name, opts, cfg);
    return std::move(run.ranks.at(0));
}

int
fleet_copies(int program)
{
    return 1 + 8 / (1 + program / 8);
}

/// Records fuzzer programs for corpus positions first .. first+count-1,
/// program i to be saved @p copies(i) times.  Each position records two
/// candidate programs and keeps the one that brings the copy-weighted node
/// total closest to kTargetNodesPerProgram per copy so far.  The programs
/// stay random, but the running error never grows, so the total size of the
/// inputs barely moves with the seed, and neither does the work a job does:
/// over seeds 1 to 10 the fleet's bytes spread 0.4% (quartile distance over
/// median), against 4.7% with one draw per position.
template <class Copies>
std::vector<testing::FuzzedCase>
balanced_cases(uint64_t seed, int first, int count, Copies copies)
{
    std::vector<testing::FuzzedCase> out;
    double total = 0.0, target = 0.0;
    for (int i = 0; i < count; ++i) {
        const double w = copies(i);
        target += w * kTargetNodesPerProgram;
        const auto index = 2 * static_cast<uint64_t>(first + i);
        testing::FuzzedCase a = testing::generate_case(testing::case_seed(seed, index));
        testing::FuzzedCase b = testing::generate_case(testing::case_seed(seed, index + 1));
        const auto miss = [&](const testing::FuzzedCase& c) {
            return std::abs(total + w * static_cast<double>(c.trace.size()) - target);
        };
        testing::FuzzedCase& pick = miss(a) <= miss(b) ? a : b;
        total += w * static_cast<double>(pick.trace.size());
        out.push_back(std::move(pick));
    }
    return out;
}

void
generate_inputs(const std::string& workload, uint64_t seed, const fs::path& out)
{
    const fs::path traces = out / "traces";
    fs::create_directories(traces);
    char stem[64];
    if (workload == "fleet_build" || workload == "fleet_restart") {
        const fs::path fleet = out / "fleet";
        fs::create_directories(fleet);
        const std::vector<testing::FuzzedCase> cases =
            balanced_cases(seed, 0, kFleetPrograms, fleet_copies);
        for (int i = 0; i < kFleetPrograms; ++i) {
            const testing::FuzzedCase& c = cases[static_cast<std::size_t>(i)];
            const int copies = fleet_copies(i);
            for (int k = 0; k < copies; ++k) {
                std::snprintf(stem, sizeof stem, "p%04d-c%d.json", i, k);
                c.trace.save((fleet / stem).string());
            }
        }
    } else if (workload == "paper_replay") {
        const std::pair<const char*, wl::Preset> models[] = {{"param_linear", wl::Preset::kPaper},
                                                             {"resnet", wl::Preset::kPaper},
                                                             {"asr", wl::Preset::kPaper},
                                                             {"rm", wl::Preset::kTiny}};
        int i = 0;
        for (const auto& [name, preset] : models) {
            const wl::RankResult r = record_model(name, preset, seed);
            std::snprintf(stem, sizeof stem, "%d-%s", i++, name);
            save_pair(traces, stem, r.trace, r.prof);
        }
    } else if (workload == "rm_paper") {
        const wl::RankResult r = record_model("rm", wl::Preset::kPaper, seed);
        save_pair(traces, "rm", r.trace, r.prof);
    } else if (workload == "package") {
        const std::vector<testing::FuzzedCase> cases =
            balanced_cases(seed, kFleetPrograms, kPackageFuzzCases, [](int) { return 1; });
        for (int i = 0; i < kPackageFuzzCases; ++i) {
            std::snprintf(stem, sizeof stem, "fuzz-%03d", i);
            save_pair(traces, stem, cases[static_cast<std::size_t>(i)].trace,
                      cases[static_cast<std::size_t>(i)].prof);
        }
        for (const char* name : {"param_linear", "resnet", "asr", "rm"}) {
            const wl::RankResult r = record_model(name, wl::Preset::kPaper, seed);
            save_pair(traces, std::string("paper-") + name, r.trace, r.prof);
        }
    } else {
        throw std::runtime_error("unknown workload " + workload);
    }
}

// --------------------------------------------------------------- workloads

/// What one job produced.  `seconds` covers only the entry-point calls the
/// job times; result checks run after it.
struct JobResult {
    double seconds = 0.0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    uint64_t digest = 0;           ///< bitwise digest of the program's outputs
    double virtual_iter_us = 0.0;  ///< simulated iteration time (0 if no replay)
    std::vector<double> unit_ms;   ///< per-unit latencies where a job has units
};

/// Sums the serial decomposition collects besides its spans.
struct LayerSums {
    double externals = 0.0;
    double op_execs = 0.0;      ///< replayed original ops × (warmup + iterations)
    double ops_selected = 0.0;
    double ops_fused = 0.0;
    double chains_formed = 0.0;
    double ops_eliminated = 0.0;
    double entry_bytes = 0.0;
    std::size_t entries = 0;
    std::vector<double> group_ms; ///< per group: plan fetch + run
};

class Workload {
  public:
    virtual ~Workload() = default;

    /// Loads the generated inputs (untimed); returns the input digest.
    virtual uint64_t load(const fs::path& inputs) = 0;
    /// Digest of the outputs every job must reproduce, computed on a
    /// separate single-worker path; nullopt when the first set-up's job is
    /// the reference (its outputs do not depend on the worker count).
    virtual std::optional<uint64_t> reference() = 0;
    /// Discards all program state and builds it afresh from the loaded
    /// inputs; setup_s times this plus the first job.
    virtual void prepare() = 0;
    /// One job; spans are recorded when @p tr is non-null.
    virtual JobResult job(Tracer* tr) = 0;
    /// Serial per-group stage decomposition of the last (traced) job, and
    /// the per-layer metrics read from both.
    virtual void decompose(Tracer& tr, Metrics& m) = 0;
    /// Work units per job, for units_per_s.
    virtual double units() const = 0;

    const std::vector<std::string>& errors() const { return errors_; }

  protected:
    void check(bool ok, const std::string& what)
    {
        if (!ok && errors_.size() < 20)
            errors_.push_back(what);
    }

    /// Replay half of the decomposition for one plan on @p session:
    /// tensor instantiation alone, then a full run.  Returns the run's
    /// seconds.
    static double replay_stages(Tracer& tr, const std::shared_ptr<const core::ReplayPlan>& plan,
                                const core::ReplayConfig& cfg, fw::Session& session,
                                const std::shared_ptr<comm::CommFabric>& fabric, LayerSums& sums)
    {
        std::vector<const et::Node*> nodes;
        for (const auto& op : plan->ops()) {
            if (op.kind != core::ReconstructedOp::Kind::kSkipped)
                nodes.push_back(op.node);
        }
        session.reset_for_replay();
        {
            auto s = span(&tr, "core.tensor_manager.instantiate");
            core::TensorManager tm(session, cfg.embedding);
            tm.analyze(nodes);
            tm.instantiate_externals();
            sums.externals += static_cast<double>(tm.num_external());
        }
        session.reset_for_replay();
        const double t0 = now_s();
        {
            auto s = span(&tr, "core.replayer.run_with");
            core::Replayer(plan, cfg).run_with(session, fabric);
        }
        const double run_s = now_s() - t0;
        sums.op_execs += static_cast<double>(nodes.size()) *
                         (cfg.warmup_iterations + cfg.iterations);
        const core::OptimizerStats& o = plan->optimizer_stats();
        sums.ops_selected += static_cast<double>(plan->selection().ops.size());
        sums.ops_fused += static_cast<double>(o.ops_fused);
        sums.chains_formed += static_cast<double>(o.chains_formed);
        sums.ops_eliminated += static_cast<double>(o.ops_eliminated);
        return run_s;
    }

    /// Per-layer metrics every decomposition shares.
    static void report_sums(const Tracer& tr, const LayerSums& sums, Metrics& m)
    {
        const double run_ms = tr.total_ms("core.replayer.run_with");
        const double inst_ms = tr.total_ms("core.tensor_manager.instantiate");
        m.set("core.tensor_manager.instantiate_ms", inst_ms, "ms");
        m.set("core.tensor_manager.externals", sums.externals, "count");
        m.set("core.replayer.run_ms", run_ms, "ms");
        m.set("core.replayer.ns_per_op", ratio((run_ms - inst_ms) * 1e6, sums.op_execs), "ns");
        m.set("core.ops_selected", sums.ops_selected, "count");
        m.set("core.ops_fused", sums.ops_fused, "count");
        m.set("core.chains_formed", sums.chains_formed, "count");
        m.set("core.ops_eliminated", sums.ops_eliminated, "count");
    }

    static void report_arena(const fw::StorageArenaStats& s, Metrics& m)
    {
        const auto hits = static_cast<double>(s.hits);
        const auto misses = static_cast<double>(s.misses);
        m.set("framework.arena.hits", hits, "count");
        m.set("framework.arena.misses", misses, "count");
        m.set("framework.arena.hit_ratio", ratio(hits, hits + misses), "ratio");
    }

    static void report_cache(const core::PlanCacheStats& s, Metrics& m)
    {
        m.set("core.plan_cache.hits", static_cast<double>(s.hits), "count");
        m.set("core.plan_cache.misses", static_cast<double>(s.misses), "count");
        m.set("core.plan_cache.disk_hits", static_cast<double>(s.disk_hits), "count");
        m.set("core.plan_cache.builds", static_cast<double>(s.builds), "count");
        m.set("core.plan_cache.writebacks", static_cast<double>(s.writebacks), "count");
    }

    static core::PlanCacheStats delta(const core::PlanCacheStats& after,
                                      const core::PlanCacheStats& before)
    {
        core::PlanCacheStats d = after;
        d.hits -= before.hits;
        d.misses -= before.misses;
        d.disk_hits -= before.disk_hits;
        d.builds -= before.builds;
        d.writebacks -= before.writebacks;
        return d;
    }

    /// Driver metrics from the traced sweep and the serial decomposition.
    static void report_driver(const core::DatabaseReplayResult& r, double sweep_ms,
                              const LayerSums& sums, Metrics& m)
    {
        double sum_ms = 0.0, max_ms = 0.0;
        for (double ms : sums.group_ms) {
            sum_ms += ms;
            max_ms = std::max(max_ms, ms);
        }
        m.set("core.replay_driver.sweep_ms", sweep_ms, "ms");
        m.set("core.replay_driver.group_ms_sum", sum_ms, "ms");
        m.set("core.replay_driver.parallel_efficiency",
              ratio(sum_ms, static_cast<double>(worker_count()) * sweep_ms), "ratio");
        m.set("core.replay_driver.max_group_share", ratio(max_ms, sum_ms), "ratio");
        m.set("core.replay_driver.groups_failed",
              static_cast<double>(r.groups.size() - r.groups_ok), "count");
        m.set("core.replay_driver.retries", static_cast<double>(r.retries), "count");
    }

    std::vector<std::string> errors_;
};

/// fleet_build / fleet_restart: ingest a directory of ~960 ET files, group
/// them, and sweep every group through a fresh PlanCache whose disk tier is
/// a plan store.  fleet_build's store starts empty, so every group is a plan
/// build plus a writeback, and the job ends when flush_writebacks has made
/// every entry durable; fleet_restart's store was populated by an earlier
/// sweep (the cross-process restart), so every group is a plan-store read.
class FleetWorkload : public Workload {
  public:
    FleetWorkload(bool restart, fs::path work)
        : restart_(restart), work_(std::move(work)), store_(work_ / "store"),
          cfg_(replay_config(2))
    {
    }

    uint64_t load(const fs::path& inputs) override
    {
        fleet_dir_ = inputs / "fleet";
        for (const auto& entry : fs::directory_iterator(fleet_dir_))
            fleet_bytes_ += static_cast<double>(entry.file_size());
        et::TraceDatabase db;
        db.load_directory(fleet_dir_.string());
        groups_ = db.analyze();
        std::vector<std::shared_ptr<const et::ExecutionTrace>> traces;
        for (std::size_t i = 0; i < db.size(); ++i)
            traces.push_back(db.trace_handle(i));
        std::printf("fleet: %zu ET files, %.2f MB, %zu groups\n", db.size(), fleet_bytes_ / 1e6,
                    groups_.size());
        return input_digest(traces);
    }

    std::optional<uint64_t> reference() override
    {
        et::TraceDatabase db;
        db.load_directory(fleet_dir_.string());
        core::PlanCache cache(4096);
        cache.set_store_dir(std::string());
        core::ReplayDriver driver(cfg_, &cache, 1);
        pin_knobs(driver);
        const core::DatabaseReplayResult r = driver.replay_groups(db);
        check(r.groups_ok == groups_.size(), "reference sweep had failed groups");
        return sweep_digest(r);
    }

    void prepare() override
    {
        fs::remove_all(store_);
        if (restart_) {
            // The earlier process that populated the store.
            const Run cold = pipeline(nullptr);
            check(cold.stats.builds == groups_.size() && cold.stats.writebacks == groups_.size(),
                  "populating sweep did not build and write back every group");
        }
    }

    JobResult job(Tracer* tr) override
    {
        if (!restart_)
            fs::remove_all(store_); // every build job starts from an empty store
        Run run = pipeline(tr);
        JobResult out;
        out.seconds = run.seconds;
        out.attempted = run.result.groups.size();
        out.failed = run.result.groups.size() - run.result.groups_ok;
        out.digest = sweep_digest(run.result);
        out.virtual_iter_us = run.result.weighted_mean_iter_us;
        const std::size_t g = groups_.size();
        check(run.result.groups.size() == g, "sweep did not cover every group");
        if (restart_) {
            check(run.stats.builds == 0, "restart sweep built plans");
            check(run.stats.disk_hits == g, "restart sweep missed the disk tier");
        } else {
            check(run.stats.builds == g && run.stats.writebacks == g,
                  "build sweep did not build and write back every group exactly once");
        }
        last_ = std::move(run);
        return out;
    }

    void decompose(Tracer& tr, Metrics& m) override
    {
        et::TraceDatabase db;
        db.load_directory(fleet_dir_.string());
        const core::PlanStore write_store((work_ / "decompose-store").string());
        const core::PlanStore read_store(store_.string());
        fs::remove_all(write_store.directory());
        const auto session = replay_session(cfg_);
        const auto fabric = std::make_shared<comm::CommFabric>(1);
        LayerSums sums;
        double stage_ms = 0.0;
        for (std::size_t i = 0; i < groups_.size(); ++i) {
            const auto trace = db.trace_handle(groups_[i].representative());
            auto gs = span(&tr, "group");
            tr.arg("group", Json(static_cast<int64_t>(i)));
            core::PlanKey key;
            {
                auto s = span(&tr, "core.plan_key");
                key = core::plan_key(*trace, nullptr, cfg_);
            }
            tr.arg("plan_key", Json(key_hex(key)));
            std::shared_ptr<const core::ReplayPlan> plan;
            double fetch_s = 0.0;
            if (!restart_) {
                const double t0 = now_s();
                {
                    auto s = span(&tr, "core.plan_build");
                    plan = core::ReplayPlan::build_with_key(trace, nullptr, cfg_, key);
                }
                fetch_s = now_s() - t0;
                stage_ms += build_stages(tr, *trace);
                auto s = span(&tr, "core.plan_store.write");
                check(write_store.store(*plan), "plan store write failed");
            } else {
                const double t0 = now_s();
                {
                    auto s = span(&tr, "core.plan_store.read");
                    plan = read_store.load(key, trace);
                }
                fetch_s = now_s() - t0;
                if (plan == nullptr) {
                    check(false, "populated store has no entry for group " + std::to_string(i));
                    continue;
                }
            }
            const core::PlanStore& store = restart_ ? read_store : write_store;
            sums.entry_bytes += static_cast<double>(fs::file_size(store.entry_path(key)));
            ++sums.entries;
            const double run_s = replay_stages(tr, plan, cfg_, *session, fabric, sums);
            sums.group_ms.push_back((fetch_s + run_s) * 1e3);
        }

        const double load_ms = tr.total_ms("et.load_directory");
        m.set("et.load_ms", load_ms, "ms");
        m.set("et.load_mb_per_s", ratio(fleet_bytes_ / 1e6, load_ms / 1e3), "MB/s");
        m.set("et.fingerprint_ms", tr.total_ms("et.fingerprint"), "ms");
        m.set("et.analyze_ms", tr.total_ms("et.analyze"), "ms");
        m.set("core.plan_key_ms", tr.total_ms("core.plan_key"), "ms");
        if (!restart_) {
            m.set("core.selection_ms", tr.total_ms("core.selection"), "ms");
            m.set("core.reconstruction_ms", tr.total_ms("core.reconstruction"), "ms");
            m.set("core.plan_optimizer_ms", tr.total_ms("core.plan_optimizer"), "ms");
            m.set("core.dep_graph_ms", tr.total_ms("core.dep_graph"), "ms");
            m.set("core.plan_build_ms", tr.total_ms("core.plan_build"), "ms");
            m.set("core.plan_build_unattributed_ms", tr.total_ms("core.plan_build") - stage_ms,
                  "ms");
            m.set("core.plan_store.write_ms", tr.total_ms("core.plan_store.write"), "ms");
            m.set("core.plan_cache.flush_ms", tr.total_ms("core.plan_cache.flush_writebacks"),
                  "ms");
        } else {
            m.set("core.plan_store.read_ms", tr.total_ms("core.plan_store.read"), "ms");
        }
        m.set("core.plan_store.entry_kb",
              ratio(sums.entry_bytes / 1024.0, static_cast<double>(sums.entries)), "KB");
        report_cache(last_.stats, m);
        report_sums(tr, sums, m);
        report_arena(last_.result.arena, m); // the traced job's worker sessions
        report_driver(last_.result, tr.total_ms("core.replay_driver.replay_groups"), sums, m);
    }

    double units() const override { return static_cast<double>(groups_.size()); }

  private:
    struct Run {
        double seconds = 0.0;
        core::DatabaseReplayResult result;
        core::PlanCacheStats stats;
    };

    /// The operator's pipeline over the fleet directory, with store_ as the
    /// cache's disk tier.
    Run pipeline(Tracer* tr)
    {
        Run run;
        et::TraceDatabase db;
        std::optional<core::PlanCache> cache;
        std::optional<core::ReplayDriver> driver;
        const double t0 = now_s();
        {
            auto job = span(tr, "job");
            {
                auto s = span(tr, "et.load_directory");
                db.load_directory(fleet_dir_.string());
            }
            {
                auto s = span(tr, "et.fingerprint");
                for (std::size_t i = 0; i < db.size(); ++i)
                    (void)db.trace(i).fingerprint();
            }
            {
                auto s = span(tr, "et.analyze");
                (void)db.analyze();
            }
            {
                auto s = span(tr, "core.replay_driver.replay_groups");
                cache.emplace(4096);
                cache->set_store_dir(store_.string());
                driver.emplace(cfg_, &*cache, worker_count());
                pin_knobs(*driver);
                run.result = driver->replay_groups(db);
            }
            {
                auto s = span(tr, "core.plan_cache.flush_writebacks");
                cache->flush_writebacks();
            }
        }
        run.seconds = now_s() - t0;
        run.stats = cache->stats();
        return run;
    }

    /// Runs the stages ReplayPlan's build runs, each under its own span, on
    /// a throwaway copy; returns their summed milliseconds.
    double build_stages(Tracer& tr, const et::ExecutionTrace& trace)
    {
        const double t0 = now_s();
        core::Selection sel;
        {
            auto s = span(&tr, "core.selection");
            sel = core::select_ops(trace, cfg_.custom_ops, cfg_.filter);
            (void)core::coverage(trace, sel, nullptr);
        }
        core::Reconstructor rc;
        std::vector<core::ReconstructedOp> ops;
        {
            auto s = span(&tr, "core.reconstruction");
            ops.reserve(sel.ops.size());
            for (const core::SelectedOp& so : sel.ops)
                ops.push_back(rc.reconstruct(*trace.find(so.node_id), so.supported));
        }
        std::vector<core::FusedGroup> fused;
        {
            auto s = span(&tr, "core.plan_optimizer");
            (void)core::optimize_plan(ops, fused);
        }
        {
            auto s = span(&tr, "core.dep_graph");
            (void)core::build_dep_graph(ops, fused);
        }
        return (now_s() - t0) * 1e3;
    }

    bool restart_;
    fs::path work_;
    fs::path store_;
    core::ReplayConfig cfg_;
    fs::path fleet_dir_;
    double fleet_bytes_ = 0.0;
    std::vector<et::TraceGroup> groups_;
    Run last_;
};

/// paper_replay: the four paper models (rm at its tiny preset) as a
/// four-group database, swept at 500 iterations through a warm cache.
class PaperReplayWorkload : public Workload {
  public:
    PaperReplayWorkload() : cfg_(replay_config(500)) {}

    uint64_t load(const fs::path& inputs) override
    {
        std::vector<std::shared_ptr<const et::ExecutionTrace>> traces;
        for (const fs::path& et_path : input_traces(inputs / "traces")) {
            traces.push_back(db_.trace_handle(db_.add(et::ExecutionTrace::load(et_path.string()))));
            prof_store_.push_back(load_prof(et_path));
        }
        for (const prof::ProfilerTrace& p : prof_store_)
            profs_.push_back(&p);
        return input_digest(traces);
    }

    std::optional<uint64_t> reference() override
    {
        core::PlanCache cache(16);
        cache.set_store_dir(std::string());
        core::ReplayDriver driver(cfg_, &cache, 1);
        pin_knobs(driver);
        const core::DatabaseReplayResult r = driver.replay_groups(db_, kAll, &profs_);
        check(r.groups_ok == db_.size(), "reference sweep had failed groups");
        units_ = 0.0;
        for (std::size_t i = 0; i < db_.size(); ++i) {
            const auto plan = cache.get_or_build(db_.trace_handle(i), profs_[i], cfg_);
            units_ += static_cast<double>(replayed_ops(*plan)) *
                      (cfg_.warmup_iterations + cfg_.iterations);
        }
        return sweep_digest(r);
    }

    void prepare() override
    {
        driver_.reset();
        cache_ = std::make_unique<core::PlanCache>(16);
        cache_->set_store_dir(std::string());
        driver_ = std::make_unique<core::ReplayDriver>(cfg_, cache_.get(), worker_count());
        pin_knobs(*driver_);
        warm_ = false;
        last_ = {};
    }

    JobResult job(Tracer* tr) override
    {
        const core::PlanCacheStats before = cache_->stats();
        const fw::StorageArenaStats arena_before = last_.arena;
        const double t0 = now_s();
        {
            auto job = span(tr, "job");
            auto s = span(tr, "core.replay_driver.replay_groups");
            last_ = driver_->replay_groups(db_, kAll, &profs_);
        }
        JobResult out;
        out.seconds = now_s() - t0;
        // The driver's arena counters accumulate over its lifetime.
        job_arena_ = last_.arena;
        job_arena_.hits -= arena_before.hits;
        job_arena_.misses -= arena_before.misses;
        out.attempted = last_.groups.size();
        out.failed = last_.groups.size() - last_.groups_ok;
        out.digest = sweep_digest(last_);
        out.virtual_iter_us = last_.weighted_mean_iter_us;
        last_stats_ = delta(cache_->stats(), before);
        check(!warm_ || last_stats_.builds == 0, "warm sweep built plans");
        warm_ = true;
        return out;
    }

    void decompose(Tracer& tr, Metrics& m) override
    {
        const auto session = replay_session(cfg_);
        const auto fabric = std::make_shared<comm::CommFabric>(1);
        LayerSums sums;
        for (const et::TraceGroup& g : db_.analyze()) {
            const std::size_t rep = g.representative();
            auto gs = span(&tr, "group");
            tr.arg("group", Json(static_cast<int64_t>(rep)));
            std::shared_ptr<const core::ReplayPlan> plan;
            const double t0 = now_s();
            {
                auto s = span(&tr, "core.plan_cache.get");
                plan = cache_->get_or_build(db_.trace_handle(rep), profs_[rep], cfg_);
            }
            const double fetch_s = now_s() - t0;
            tr.arg("plan_key", Json(key_hex(plan->key())));
            const double run_s = replay_stages(tr, plan, cfg_, *session, fabric, sums);
            sums.group_ms.push_back((fetch_s + run_s) * 1e3);
        }
        report_cache(last_stats_, m);
        report_sums(tr, sums, m);
        report_arena(job_arena_, m);
        report_driver(last_, tr.total_ms("core.replay_driver.replay_groups"), sums, m);
    }

    double units() const override { return units_; }

  private:
    static constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();

    core::ReplayConfig cfg_;
    et::TraceDatabase db_;
    std::vector<prof::ProfilerTrace> prof_store_;
    std::vector<const prof::ProfilerTrace*> profs_; ///< into prof_store_, per db_ trace
    double units_ = 0.0;
    std::unique_ptr<core::PlanCache> cache_;
    std::unique_ptr<core::ReplayDriver> driver_;
    bool warm_ = false;
    core::DatabaseReplayResult last_;
    core::PlanCacheStats last_stats_;
    fw::StorageArenaStats job_arena_;
};

/// rm_paper: one replay of rm at its production-scale preset from a warm
/// plan — a single group, so driver parallelism cannot help.
class RmPaperWorkload : public Workload {
  public:
    RmPaperWorkload() : cfg_(replay_config(5)) {}

    uint64_t load(const fs::path& inputs) override
    {
        pairs_ = load_pairs(inputs / "traces");
        return input_digest(traces_of(pairs_));
    }

    std::optional<uint64_t> reference() override { return std::nullopt; }

    void prepare() override
    {
        plan_.reset();
        cache_ = std::make_unique<core::PlanCache>(4);
        cache_->set_store_dir(std::string());
        plan_ = cache_->get_or_build(pairs_[0].trace, &pairs_[0].prof, cfg_);
    }

    JobResult job(Tracer* tr) override
    {
        core::ReplayResult r;
        const double t0 = now_s();
        {
            auto job = span(tr, "job");
            auto s = span(tr, "core.replayer.run");
            r = core::Replayer(plan_, cfg_).run();
        }
        JobResult out;
        out.seconds = now_s() - t0;
        out.attempted = 1;
        out.digest = iter_digest(r.iter_us);
        out.virtual_iter_us = r.mean_iter_us;
        check(r.iter_us.size() == static_cast<std::size_t>(cfg_.iterations),
              "replay returned the wrong number of iterations");
        return out;
    }

    void decompose(Tracer& tr, Metrics& m) override
    {
        const auto session = replay_session(cfg_);
        const auto fabric = std::make_shared<comm::CommFabric>(1);
        LayerSums sums;
        {
            auto gs = span(&tr, "group");
            tr.arg("group", Json(0));
            tr.arg("plan_key", Json(key_hex(plan_->key())));
            (void)replay_stages(tr, plan_, cfg_, *session, fabric, sums);
        }
        report_sums(tr, sums, m);
        report_arena(session->arena().stats(), m);
    }

    double units() const override
    {
        return static_cast<double>(replayed_ops(*plan_)) *
               (cfg_.warmup_iterations + cfg_.iterations);
    }

  private:
    core::ReplayConfig cfg_;
    std::vector<TracePair> pairs_;
    std::unique_ptr<core::PlanCache> cache_;
    std::shared_ptr<const core::ReplayPlan> plan_;
};

/// package: the benchmark-sharing flow of §5.  Set-up packages each of 64
/// fuzzer traces and the four paper traces from a warm plan cache (the
/// generate-after-replay flow, so no plan is built); every job then opens
/// each package the way a generated benchmark_main does — verify_package,
/// load the packaged traces and config, import the packaged plan into a
/// fresh cache — and fetches the plan, which must be a hit.  Generation is
/// not in the job because every package file is published with an fsync,
/// whose latency is the disk's, not the program's; the traced run times it.
class PackageWorkload : public Workload {
  public:
    explicit PackageWorkload(fs::path work) : work_(std::move(work)), cfg_(replay_config(5)) {}

    uint64_t load(const fs::path& inputs) override
    {
        pairs_ = load_pairs(inputs / "traces");
        return input_digest(traces_of(pairs_));
    }

    std::optional<uint64_t> reference() override { return std::nullopt; }

    void prepare() override
    {
        fs::remove_all(work_ / "packages");
        cache_ = std::make_unique<core::PlanCache>(256);
        cache_->set_store_dir(std::string());
        for (const TracePair& p : pairs_)
            (void)cache_->get_or_build(p.trace, &p.prof, cfg_);
        const uint64_t builds = cache_->stats().builds;
        for (std::size_t i = 0; i < pairs_.size(); ++i)
            core::generate_benchmark(package_dir(i).string(), *pairs_[i].trace, pairs_[i].prof,
                                     cfg_, cache_.get());
        check(cache_->stats().builds == builds, "packaging built plans");
    }

    JobResult job(Tracer* tr) override
    {
        JobResult out;
        core::PlanCache consumer(256);
        consumer.set_store_dir(std::string());
        std::vector<std::shared_ptr<const core::ReplayPlan>> plans(pairs_.size());
        std::size_t verified = 0;
        const double t0 = now_s();
        {
            auto job = span(tr, "job");
            for (std::size_t i = 0; i < pairs_.size(); ++i) {
                const double u0 = now_s();
                const fs::path dir = package_dir(i);
                try {
                    {
                        auto s = span(tr, "core.codegen.verify");
                        verified += core::verify_package(dir.string()).ok ? 1 : 0;
                    }
                    auto s = span(tr, "core.codegen.import");
                    const core::ReplayConfig cfg = core::ReplayConfig::from_json(
                        Json::parse_file((dir / "manifest.json").string()).at("replay_config"));
                    const auto trace = std::make_shared<const et::ExecutionTrace>(
                        et::ExecutionTrace::load((dir / "execution_trace.json").string()));
                    const prof::ProfilerTrace prof = prof::ProfilerTrace::from_json(
                        Json::parse_file((dir / "profiler_trace.json").string()));
                    consumer.insert(core::ReplayPlan::from_json(
                        Json::parse_file((dir / "replay_plan.json").string()), trace));
                    plans[i] = consumer.get_or_build(trace, &prof, cfg);
                } catch (const std::exception& e) {
                    check(false, std::string("opening a package threw: ") + e.what());
                }
                out.unit_ms.push_back((now_s() - u0) * 1e3);
            }
        }
        out.seconds = now_s() - t0;
        out.attempted = pairs_.size();
        out.failed = pairs_.size() - verified;
        last_stats_ = consumer.stats();
        check(last_stats_.builds == 0, "opening packages built plans");

        // The imported plans are the output: each must serialize exactly
        // like the plan it was packaged from.
        Fnv1a h;
        for (std::size_t i = 0; i < pairs_.size(); ++i) {
            if (plans[i] == nullptr)
                continue;
            const std::string imported = plans[i]->to_json().dump();
            const auto packaged = cache_->get_or_build(pairs_[i].trace, &pairs_[i].prof, cfg_);
            check(imported == packaged->to_json().dump(),
                  "imported plan " + std::to_string(i) + " differs from the packaged plan");
            h.mix(imported);
        }
        out.digest = h.value();
        return out;
    }

    void decompose(Tracer& tr, Metrics& m) override
    {
        const fs::path scratch = work_ / "decompose-package";
        double package_bytes = 0.0;
        for (std::size_t i = 0; i < pairs_.size(); ++i) {
            const TracePair& p = pairs_[i];
            for (const auto& entry : fs::directory_iterator(package_dir(i)))
                package_bytes += static_cast<double>(entry.file_size());
            auto gs = span(&tr, "package");
            tr.arg("trace", Json(static_cast<int64_t>(i)));
            std::shared_ptr<const core::ReplayPlan> plan;
            {
                auto s = span(&tr, "core.codegen.generate");
                plan = core::generate_benchmark((scratch / std::to_string(i)).string(), *p.trace,
                                                p.prof, cfg_, cache_.get())
                           .plan;
            }
            tr.arg("plan_key", Json(key_hex(plan->key())));
            // The pieces generate_benchmark is made of, through the same calls.
            Json plan_j, trace_j, prof_j;
            {
                auto s = span(&tr, "core.codegen.plan_json");
                plan_j = plan->to_json();
            }
            {
                auto s = span(&tr, "et.trace_json");
                trace_j = p.trace->to_json();
            }
            {
                auto s = span(&tr, "profiler.prof_json");
                prof_j = p.prof.to_json();
            }
            std::string plan_s, trace_s, prof_s;
            {
                auto s = span(&tr, "common.json.dump");
                trace_s = trace_j.dump();
                prof_s = prof_j.dump();
                plan_s = plan_j.dump(2);
            }
            {
                auto s = span(&tr, "common.fs_util.write");
                atomic_write_file((scratch / "execution_trace.json").string(), trace_s);
                atomic_write_file((scratch / "profiler_trace.json").string(), prof_s);
                atomic_write_file((scratch / "replay_plan.json").string(), plan_s);
            }
            {
                auto s = span(&tr, "common.json.parse");
                (void)Json::parse_file((scratch / "execution_trace.json").string());
                (void)Json::parse_file((scratch / "profiler_trace.json").string());
                (void)Json::parse_file((scratch / "replay_plan.json").string());
            }
        }
        report_cache(last_stats_, m);
        m.set("core.codegen.generate_ms", tr.total_ms("core.codegen.generate"), "ms");
        m.set("core.codegen.verify_ms", tr.total_ms("core.codegen.verify"), "ms");
        m.set("core.codegen.import_ms", tr.total_ms("core.codegen.import"), "ms");
        m.set("core.codegen.plan_json_ms", tr.total_ms("core.codegen.plan_json"), "ms");
        m.set("core.codegen.package_kb",
              package_bytes / 1024.0 / static_cast<double>(pairs_.size()), "KB");
        m.set("et.trace_json_ms", tr.total_ms("et.trace_json"), "ms");
        m.set("profiler.prof_json_ms", tr.total_ms("profiler.prof_json"), "ms");
        m.set("common.json.dump_ms", tr.total_ms("common.json.dump"), "ms");
        m.set("common.fs_util.write_ms", tr.total_ms("common.fs_util.write"), "ms");
        m.set("common.json.parse_ms", tr.total_ms("common.json.parse"), "ms");
    }

    double units() const override { return static_cast<double>(pairs_.size()); }

  private:
    fs::path package_dir(std::size_t i) const
    {
        return work_ / "packages" / std::to_string(i);
    }

    fs::path work_;
    core::ReplayConfig cfg_;
    std::vector<TracePair> pairs_;
    std::unique_ptr<core::PlanCache> cache_; ///< the producer's warm cache
    core::PlanCacheStats last_stats_;        ///< the last job's consumer cache
};

std::unique_ptr<Workload>
make_workload(const std::string& name, const fs::path& work)
{
    if (name == "fleet_build")
        return std::make_unique<FleetWorkload>(false, work);
    if (name == "fleet_restart")
        return std::make_unique<FleetWorkload>(true, work);
    if (name == "paper_replay")
        return std::make_unique<PaperReplayWorkload>();
    if (name == "rm_paper")
        return std::make_unique<RmPaperWorkload>();
    if (name == "package")
        return std::make_unique<PackageWorkload>(work);
    throw std::runtime_error("unknown workload " + name);
}

// -------------------------------------------------------------------- main

struct Args {
    std::string mode;
    std::string workload;
    uint64_t seed = 11;
    fs::path out, inputs, work, trace_dir;
    double seconds = 0.0; ///< required in run mode
};

Args
parse_args(int argc, char** argv)
{
    Args a;
    if (argc < 2)
        throw std::runtime_error("usage: pipebench gen|run --workload W ...");
    a.mode = argv[1];
    for (int i = 2; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + flag);
        const std::string v = argv[i + 1];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::stoull(v);
        else if (flag == "--out")
            a.out = v;
        else if (flag == "--inputs")
            a.inputs = v;
        else if (flag == "--work")
            a.work = v;
        else if (flag == "--seconds")
            a.seconds = std::stod(v);
        else if (flag == "--trace")
            a.trace_dir = v;
        else
            throw std::runtime_error("unknown flag " + flag);
    }
    return a;
}

double
peak_rss_mb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

int
run(const Args& a)
{
    if (!(a.seconds > 0.0))
        throw std::runtime_error("run needs --seconds > 0");
    fs::create_directories(a.work);
    const std::unique_ptr<Workload> w = make_workload(a.workload, a.work);
    std::printf("workload %s seed %" PRIu64 " workers %zu work_dir %s\n", a.workload.c_str(),
                a.seed, worker_count(), a.work.string().c_str());

    const uint64_t in_digest = w->load(a.inputs);
    std::optional<uint64_t> ref = w->reference();

    bool outputs_match = true;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupReps; ++i) {
        const double t0 = now_s();
        w->prepare();
        const JobResult r = w->job(nullptr);
        setup_s.push_back(now_s() - t0);
        if (!ref)
            ref = r.digest;
        outputs_match = outputs_match && r.digest == *ref;
    }

    std::vector<double> job_s, unit_ms;
    std::size_t attempted = 0, failed = 0;
    const double loop_start = now_s();
    while (now_s() - loop_start < a.seconds || static_cast<int>(job_s.size()) < kMinJobs) {
        const JobResult r = w->job(nullptr);
        job_s.push_back(r.seconds);
        attempted += r.attempted;
        failed += r.failed;
        unit_ms.insert(unit_ms.end(), r.unit_ms.begin(), r.unit_ms.end());
        outputs_match = outputs_match && r.digest == *ref;
    }
    const double rss = peak_rss_mb();
    double busy_s = 0.0;
    for (double s : job_s)
        busy_s += s;
    const double job_mean_s = busy_s / static_cast<double>(job_s.size());

    // Work completed per second of job time.  On a host whose speed moves
    // in phases of seconds (other tenants' load), this mean tracks the share
    // of slow time smoothly, where a median jumps between the phases.
    Metrics m;
    m.set("units_per_s", w->units() / job_mean_s, "1/s");
    m.set("setup_s", median(setup_s), "s");
    m.set("peak_rss_mb", rss, "MB");
    std::printf("jobs %zu job_ms mean %.3f q1 %.3f median %.3f q3 %.3f:", job_s.size(),
                job_mean_s * 1e3, percentile(job_s, 25.0) * 1e3, median(job_s) * 1e3,
                percentile(job_s, 75.0) * 1e3);
    for (double s : job_s)
        std::printf(" %.1f", s * 1e3);
    std::printf("\n");

    bool spans_cover = true;
    if (!a.trace_dir.empty()) {
        Tracer tr;
        const JobResult traced = w->job(&tr);
        outputs_match = outputs_match && traced.digest == *ref;
        {
            auto d = span(&tr, "decompose");
            w->decompose(tr, m);
        }
        m.set("sim.virtual_iter_us", traced.virtual_iter_us, "us");
        if (!unit_ms.empty()) {
            m.set("core.codegen.open_ms_p50", percentile(unit_ms, 50.0), "ms");
            m.set("core.codegen.open_ms_p95", percentile(unit_ms, 95.0), "ms");
        }
        m.set("trace_overhead_pct", (traced.seconds - job_mean_s) / job_mean_s * 100.0, "%");
        const double coverage = tr.child_coverage("job") * 100.0;
        m.set("trace_coverage_pct", coverage, "%");
        spans_cover = coverage >= 95.0;
        if (!spans_cover)
            std::printf("check failed: top-level spans cover only %.1f%% of the traced job\n",
                        coverage);

        fs::create_directories(a.trace_dir);
        tr.to_chrome_trace().dump_file((a.trace_dir / (a.workload + ".trace.json")).string());
        Json layers = Json::object();
        layers.set("workload", Json(a.workload));
        layers.set("seed", Json(a.seed));
        layers.set("workers", Json(worker_count()));
        layers.set("traced_job_ms", Json(traced.seconds * 1e3));
        layers.set("metrics", m.to_json());
        Json spans = Json::object();
        for (const auto& [name, t] : tr.totals()) {
            Json s = Json::object();
            s.set("count", Json(t.count));
            s.set("total_ms", Json(t.total_s * 1e3));
            s.set("self_ms", Json(t.self_s * 1e3));
            spans.set(name, std::move(s));
        }
        layers.set("spans", std::move(spans));
        layers.dump_file((a.trace_dir / (a.workload + ".layers.json")).string(), 2);
    }
    if (!outputs_match)
        std::printf("check failed: a job's outputs differ from the reference\n");
    for (const std::string& e : w->errors())
        std::printf("check failed: %s\n", e.c_str());
    const bool correct = outputs_match && spans_cover && w->errors().empty();

    std::printf("input_digest %s\n", hex64(in_digest).c_str());
    std::printf("sim_digest %s\n", hex64(*ref).c_str());
    m.print();
    Json result = Json::object();
    result.set("correct", Json(correct));
    result.set("attempted", Json(attempted));
    result.set("failed", Json(failed));
    result.set("metrics", m.to_json());
    std::printf("%s\n", result.dump().c_str());
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        const Args a = parse_args(argc, argv);
        if (a.mode == "gen") {
            generate_inputs(a.workload, a.seed, a.out);
            return 0;
        }
        if (a.mode == "run")
            return run(a);
        throw std::runtime_error("unknown mode '" + a.mode + "'");
    } catch (const std::exception& e) {
        std::fprintf(stderr, "pipebench: %s\n", e.what());
        return 2;
    }
}
