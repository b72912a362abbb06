/// Disk-backed plan tier tests: lossless ReplayPlan JSON round-trips across
/// every registered op in a multi-workload trace set, cross-cache-instance
/// disk reuse (the in-process model of cross-process reuse), the corruption/
/// robustness matrix (truncated, zero-byte, edited, key-flipped,
/// stale-schema, old-layout and kind-drifted entries quarantine and rebuild —
/// never crash, never replay a wrong plan), and build-once ⇒ write-once under
/// concurrent fetches.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/fs_util.h"
#include "common/hash.h"
#include "core/plan_cache.h"
#include "core/plan_store.h"
#include "core/replayer.h"
#include "plan_doc_edits.h"
#include "scoped_dir.h"
#include "scoped_env.h"
#include "workloads/harness.h"

namespace mystique::core {
namespace {

namespace fs = std::filesystem;

wl::RunConfig
tiny_cfg()
{
    wl::RunConfig cfg;
    cfg.mode = fw::ExecMode::kShapeOnly;
    cfg.warmup_iterations = 1;
    cfg.iterations = 2;
    cfg.seed = 7;
    return cfg;
}

wl::WorkloadOptions
tiny_opts()
{
    wl::WorkloadOptions o;
    o.preset = wl::Preset::kTiny;
    return o;
}

ReplayConfig
tiny_replay()
{
    ReplayConfig cfg;
    cfg.mode = fw::ExecMode::kShapeOnly;
    cfg.warmup_iterations = 1;
    cfg.iterations = 2;
    return cfg;
}

/// One traced tiny run per workload, shared across the suite.
const wl::RunResult&
traced(const std::string& workload)
{
    static std::map<std::string, wl::RunResult> cache;
    auto it = cache.find(workload);
    if (it == cache.end())
        it = cache.emplace(workload, wl::run_original(workload, tiny_opts(), tiny_cfg()))
                 .first;
    return it->second;
}

/// The single store entry in @p dir (fails the test when count != 1).
std::string
sole_entry(const std::string& dir)
{
    std::vector<std::string> entries;
    for (const auto& e : fs::directory_iterator(dir)) {
        if (e.path().extension() == ".json")
            entries.push_back(e.path().string());
    }
    EXPECT_EQ(entries.size(), 1u) << "expected exactly one store entry in " << dir;
    return entries.empty() ? std::string() : entries.front();
}

/// Rewrites the sealed store entry at @p path through @p edit and seals it
/// again: the entry passes its seal, so the check a test names is the one
/// that must reject it.
void
reseal(const std::string& path, const std::function<void(Json&)>& edit)
{
    Json doc = Json::parse_sealed(read_file(path));
    edit(doc);
    atomic_write_file(path, doc.dump_sealed());
}

/// Replaces @p doc's "plan" member with @p edit applied to a copy of it.
void
edit_plan(Json& doc, const std::function<void(Json&)>& edit)
{
    Json plan = doc.at("plan");
    edit(plan);
    doc.set("plan", std::move(plan));
}

/// Replaces @p plan's first op with @p edit applied to a copy of it.
void
edit_first_op(Json& plan, const std::function<void(Json&)>& edit)
{
    Json ops = plan.at("ops");
    ASSERT_FALSE(ops.as_array().empty());
    edit(ops.as_array().front());
    plan.set("ops", std::move(ops));
}

void
expect_identical_replay(const std::shared_ptr<const ReplayPlan>& a,
                        const std::shared_ptr<const ReplayPlan>& b,
                        const ReplayConfig& cfg, const std::string& label)
{
    Replayer ra(a, cfg);
    const ReplayResult res_a = ra.run();
    Replayer rb(b, cfg);
    const ReplayResult res_b = rb.run();
    EXPECT_EQ(res_a.mean_iter_us, res_b.mean_iter_us) << label;
    ASSERT_EQ(res_a.iter_us.size(), res_b.iter_us.size()) << label;
    for (std::size_t i = 0; i < res_a.iter_us.size(); ++i)
        EXPECT_EQ(res_a.iter_us[i], res_b.iter_us[i]) << label << " iter " << i;
    EXPECT_EQ(res_a.coverage.selected_ops, res_b.coverage.selected_ops) << label;
    EXPECT_EQ(res_a.prof.kernels().size(), res_b.prof.kernels().size()) << label;
}

// ---------------------------------------------------------------------------
// Satellite 1: property-style round trip over every registered op that the
// multi-workload trace set reaches.
// ---------------------------------------------------------------------------

TEST(PlanRoundTrip, EveryReachedOpSurvivesJsonAndReplaysBitIdentically)
{
    const ReplayConfig cfg = tiny_replay();
    std::set<std::string> supported_names_reached;

    for (const char* workload : {"param_linear", "rm", "asr"}) {
        const auto& r0 = traced(workload).rank0();
        const auto plan = ReplayPlan::build(r0.trace, &r0.prof, cfg);
        const Json j = plan->to_json();
        const auto restored = ReplayPlan::from_json(j, r0.trace);

        // Lossless: re-serializing the restored plan reproduces the document.
        EXPECT_EQ(restored->to_json(), j) << workload;
        EXPECT_EQ(restored->key(), plan->key()) << workload;

        // Per-op property: every reconstructed op — one per registered op
        // occurrence the selection reached — round-trips kind, stream
        // assignment, and generated IR text exactly.
        ASSERT_EQ(restored->ops().size(), plan->ops().size()) << workload;
        for (std::size_t i = 0; i < plan->ops().size(); ++i) {
            const ReconstructedOp& orig = plan->ops()[i];
            const ReconstructedOp& back = restored->ops()[i];
            ASSERT_NE(orig.node, nullptr);
            ASSERT_NE(back.node, nullptr);
            EXPECT_EQ(back.node->id, orig.node->id) << workload << " op " << i;
            EXPECT_EQ(back.node->name, orig.node->name) << workload << " op " << i;
            EXPECT_EQ(back.kind, orig.kind) << workload << " op " << orig.node->name;
            EXPECT_EQ(back.stream, orig.stream) << workload << " op " << orig.node->name;
            EXPECT_EQ(back.ir_text, orig.ir_text) << workload << " op " << orig.node->name;
            if (orig.kind != ReconstructedOp::Kind::kSkipped)
                supported_names_reached.insert(orig.node->name);
        }

        expect_identical_replay(plan, restored, cfg, workload);
    }

    // The three workloads must actually exercise a broad slice of the
    // registry — a trivial trace would make the per-op property vacuous.
    EXPECT_GE(supported_names_reached.size(), 10u)
        << "multi-workload trace set reaches suspiciously few registered ops";
}

// ---------------------------------------------------------------------------
// Disk-tier reuse across cache instances (the in-process stand-in for the
// cross-process CI step; the key and entry bytes are process-independent).
// ---------------------------------------------------------------------------

TEST(PlanStoreTier, SecondCacheInstanceLoadsFromDiskWithZeroBuilds)
{
    const auto& r0 = traced("param_linear").rank0();
    const ReplayConfig cfg = tiny_replay();
    ScopedDir dir("myst_plan_store_test");

    PlanCache first(8);
    first.set_store_dir(dir.path);
    const auto built = first.get_or_build(r0.trace, &r0.prof, cfg);
    first.flush_writebacks();
    PlanCacheStats s1 = first.stats();
    EXPECT_EQ(s1.misses, 1u);
    EXPECT_EQ(s1.disk_hits, 0u);
    EXPECT_EQ(s1.disk_misses, 1u);
    EXPECT_EQ(s1.builds, 1u);
    EXPECT_EQ(s1.writebacks, 1u);
    sole_entry(dir.path);

    // A fresh cache (≈ a fresh process) resolves the same key from disk.
    PlanCache second(8);
    second.set_store_dir(dir.path);
    const auto loaded = second.get_or_build(r0.trace, &r0.prof, cfg);
    const PlanCacheStats s2 = second.stats();
    EXPECT_EQ(s2.misses, 1u);
    EXPECT_EQ(s2.disk_hits, 1u);
    EXPECT_EQ(s2.disk_misses, 0u);
    EXPECT_EQ(s2.builds, 0u); // zero plan builds — the tentpole claim
    EXPECT_EQ(loaded->key(), built->key());
    expect_identical_replay(built, loaded, cfg, "disk-loaded plan");

    // A disk hit must not be re-written back.
    second.flush_writebacks();
    EXPECT_EQ(second.stats().writebacks, 0u);
}

TEST(PlanStoreTier, ClearedCacheRefillsFromDiskNotFromBuild)
{
    const auto& r0 = traced("param_linear").rank0();
    const ReplayConfig cfg = tiny_replay();
    ScopedDir dir("myst_plan_store_test");

    PlanCache cache(8);
    cache.set_store_dir(dir.path);
    (void)cache.get_or_build(r0.trace, &r0.prof, cfg);
    cache.flush_writebacks();
    cache.clear(); // memory tier dropped, disk tier deliberately kept

    (void)cache.get_or_build(r0.trace, &r0.prof, cfg);
    const PlanCacheStats s = cache.stats();
    EXPECT_EQ(s.disk_hits, 1u);
    EXPECT_EQ(s.builds, 0u);
}

TEST(PlanStoreTier, EnvVarIsReadWhenTheCacheIsConstructed)
{
    const auto& r0 = traced("param_linear").rank0();
    const ReplayConfig cfg = tiny_replay();
    ScopedDir dir("myst_plan_store_test");

    const ScopedEnv unset("MYST_PLAN_CACHE_DIR", std::nullopt);
    PlanCache before(8); // built before the variable was set
    std::optional<PlanCache> during;
    {
        const ScopedEnv store_dir("MYST_PLAN_CACHE_DIR", dir.path);
        during.emplace(8);
    }

    // The variable is gone, but the cache built under it keeps its tier.
    (void)during->get_or_build(r0.trace, &r0.prof, cfg);
    during->flush_writebacks();
    EXPECT_EQ(during->stats().writebacks, 1u);
    sole_entry(dir.path);

    // Setting the variable later gives the older cache no tier.
    const ScopedEnv store_dir("MYST_PLAN_CACHE_DIR", dir.path);
    (void)before.get_or_build(r0.trace, &r0.prof, cfg);
    const PlanCacheStats s = before.stats();
    EXPECT_EQ(s.disk_hits + s.disk_misses, 0u);
    EXPECT_EQ(s.builds, 1u);
}

// ---------------------------------------------------------------------------
// Satellite 2: corruption/robustness matrix.  Every flavor of disk rot is
// quarantined (renamed .bad) and falls back to a successful build; the
// rebuilt plan is re-persisted and the store heals.
// ---------------------------------------------------------------------------

class PlanStoreCorruption : public ::testing::Test {
  protected:
    /// Seeds the store with one valid entry and returns its path.
    std::string seed_entry()
    {
        const auto& r0 = traced("param_linear").rank0();
        PlanCache seeder(8);
        seeder.set_store_dir(dir_.path);
        (void)seeder.get_or_build(r0.trace, &r0.prof, tiny_replay());
        seeder.flush_writebacks();
        EXPECT_EQ(seeder.stats().writebacks, 1u);
        return sole_entry(dir_.path);
    }

    /// Runs a fresh cache against the (corrupted) store and asserts the
    /// quarantine-and-rebuild contract end to end.
    void expect_quarantine_and_rebuild(const std::string& entry)
    {
        const auto& r0 = traced("param_linear").rank0();
        PlanCache cache(8);
        cache.set_store_dir(dir_.path);
        std::shared_ptr<const ReplayPlan> plan;
        ASSERT_NO_THROW(plan = cache.get_or_build(r0.trace, &r0.prof, tiny_replay()));
        ASSERT_NE(plan, nullptr);
        const PlanCacheStats s = cache.stats();
        EXPECT_EQ(s.disk_hits, 0u);
        EXPECT_EQ(s.disk_misses, 1u);
        EXPECT_EQ(s.builds, 1u); // fell back to a build, never a wrong plan
        EXPECT_TRUE(fs::exists(entry + ".bad")) << "corrupt entry not quarantined";

        // The rebuild re-persists a valid entry: the store self-heals and the
        // next fresh cache is a pure disk hit again.
        cache.flush_writebacks();
        EXPECT_EQ(cache.stats().writebacks, 1u);
        PlanCache healed(8);
        healed.set_store_dir(dir_.path);
        (void)healed.get_or_build(r0.trace, &r0.prof, tiny_replay());
        EXPECT_EQ(healed.stats().disk_hits, 1u);
        EXPECT_EQ(healed.stats().builds, 0u);
    }

    ScopedDir dir_{"myst_plan_store_test"};
};

TEST_F(PlanStoreCorruption, TruncatedEntryQuarantinesAndRebuilds)
{
    const std::string entry = seed_entry();
    std::ifstream in(entry, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 64u);
    std::ofstream out(entry, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() / 2); // mid-document cut
    out.close();
    expect_quarantine_and_rebuild(entry);
}

TEST_F(PlanStoreCorruption, ZeroByteEntryQuarantinesAndRebuilds)
{
    const std::string entry = seed_entry();
    std::ofstream(entry, std::ios::binary | std::ios::trunc).close();
    ASSERT_EQ(fs::file_size(entry), 0u);
    expect_quarantine_and_rebuild(entry);
}

TEST_F(PlanStoreCorruption, FlippedFingerprintQuarantinesAndRebuilds)
{
    const std::string entry = seed_entry();
    // Flip the plan key's trace fingerprint: the entry now claims an
    // identity its file name (and content) cannot back up.
    reseal(entry, [](Json& doc) {
        edit_plan(doc, [](Json& plan) {
            Json key = plan.at("key");
            key.set("trace_fp", Json::from_u64(key.at("trace_fp").as_u64() ^ 1));
            plan.set("key", std::move(key));
        });
    });
    expect_quarantine_and_rebuild(entry);
}

TEST_F(PlanStoreCorruption, StaleSchemaVersionQuarantinesAndRebuilds)
{
    const std::string entry = seed_entry();
    reseal(entry,
           [](Json& doc) { doc.set("format_version", Json(kPlanStoreFormatVersion + 1)); });
    expect_quarantine_and_rebuild(entry);
}

TEST_F(PlanStoreCorruption, PreOptimizerV1EntryQuarantinesAndRebuilds)
{
    // An entry written by a v1 (pre-plan-optimizer) build: plans serialized
    // before fused groups existed must quarantine and rebuild, never replay
    // under the current schema.
    const std::string entry = seed_entry();
    reseal(entry, [](Json& doc) { doc.set("format_version", Json(int64_t{1})); });
    expect_quarantine_and_rebuild(entry);
}

TEST_F(PlanStoreCorruption, V4LayoutEntryQuarantinesAndRebuilds)
{
    // The v4 layout: a head with the key and a plan_hash over the plan's
    // bytes, then the plan spliced in last, unsealed.  Nothing reads it.
    const std::string entry = seed_entry();
    const Json plan = Json::parse_sealed(read_file(entry)).at("plan");
    const std::string plan_text = plan.dump();
    Json head = Json::object();
    head.set("format", Json("mystique-plan-store-entry"));
    head.set("format_version", Json(int64_t{4}));
    head.set("key", plan.at("key"));
    head.set("plan_hash", Json::from_u64(hash_bytes(plan_text)));
    std::string text = head.dump();
    text.pop_back();
    atomic_write_file(entry, text + ",\"plan\":" + plan_text + "}");
    expect_quarantine_and_rebuild(entry);
}

TEST_F(PlanStoreCorruption, TamperedPlanContentFailsTheSeal)
{
    const std::string entry = seed_entry();
    // Edit inside the plan without sealing again: the seal over the whole
    // entry must catch it, whatever the edited field was.
    Json doc = Json::parse_file(entry);
    edit_plan(doc, [](Json& plan) {
        edit_first_op(plan, [](Json& op) { op.set("stream", Json(int64_t{99})); });
    });
    doc.dump_file(entry);
    expect_quarantine_and_rebuild(entry);
}

TEST_F(PlanStoreCorruption, KindDriftedEntryQuarantinesAndRebuilds)
{
    const std::string entry = seed_entry();
    // Rewrite one op's recorded kind and seal the entry again: the
    // quarantine must then come from ReplayPlan::from_json's
    // registry-mismatch detection — the entry claims a reconstruction kind
    // this process's registry cannot reproduce.
    reseal(entry, [](Json& doc) {
        edit_plan(doc, [](Json& plan) {
            edit_first_op(plan, [](Json& op) {
                // A compiled-IR op recorded as "direct" is the detectable
                // drift: this process derives compiled_ir for an ATen node,
                // contradicting the document.  ("skipped" would also flip
                // the derived supported flag and stay self-consistent.)
                ASSERT_TRUE(op.contains("ir")) << "expected a compiled-IR op first";
                op.set("kind", Json("direct"));
            });
        });
    });
    expect_quarantine_and_rebuild(entry);
}

TEST_F(PlanStoreCorruption, MistypedOptionalPlanMembersQuarantine)
{
    // Sealed again after the edit, the entry passes its seal; restoring it
    // must then fail, and the entry quarantine.
    const auto& r0 = traced("rm").rank0();
    ReplayConfig cfg = tiny_replay();
    cfg.opt_level = 1;
    const auto trace = std::make_shared<const et::ExecutionTrace>(r0.trace);
    const auto plan = ReplayPlan::build(trace, &r0.prof, cfg);
    const auto edits = mistyped_optional_member_edits();
    // The error names the mistyped member, and for an op the op's node.
    const auto expected_error = [](const Json& doc, std::size_t edit) -> std::string {
        if (edit == 1)
            return "parse error: json: member 'dead': expected bool";
        for (const Json& op : doc.at("ops").as_array()) {
            if (const auto kind = op.find("kind"); kind && kind->value().is_int())
                return "parse error: plan json: op for node " +
                       std::to_string(op.at("node_id").as_int()) +
                       ": json: member 'kind': expected string";
        }
        return "no op with a mistyped kind";
    };
    const PlanStore store(dir_.path);
    const std::string entry = store.entry_path(plan->key());
    for (std::size_t i = 0; i < edits.size(); ++i) {
        ASSERT_TRUE(store.store(*plan));
        ASSERT_NE(store.load(plan->key(), trace), nullptr) << i;
        reseal(entry, [&](Json& doc) { edit_plan(doc, edits[i]); });
        const Json edited = Json::parse_sealed(read_file(entry)).at("plan");
        std::string what;
        try {
            (void)ReplayPlan::from_json(edited, trace);
        } catch (const ParseError& e) {
            what = e.what();
        }
        EXPECT_EQ(what, expected_error(edited, i)) << i;
        EXPECT_EQ(store.load(plan->key(), trace), nullptr) << i;
        EXPECT_TRUE(fs::exists(entry + ".bad")) << i;
        fs::remove(entry + ".bad");
    }
}

TEST_F(PlanStoreCorruption, ConcurrentFetchWritesBackExactlyOnce)
{
    const auto& r0 = traced("param_linear").rank0();
    const ReplayConfig cfg = tiny_replay();
    PlanCache cache(8);
    cache.set_store_dir(dir_.path);

    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const ReplayPlan>> plans(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back(
            [&, i] { plans[i] = cache.get_or_build(r0.trace, &r0.prof, cfg); });
    }
    for (auto& t : threads)
        t.join();
    for (int i = 0; i < kThreads; ++i) {
        ASSERT_NE(plans[i], nullptr);
        EXPECT_EQ(plans[i].get(), plans[0].get());
    }

    cache.flush_writebacks();
    const PlanCacheStats s = cache.stats();
    EXPECT_EQ(s.builds, 1u);
    EXPECT_EQ(s.writebacks, 1u); // build-once ⇒ write-once

    // No torn files: exactly one entry, no leftover temp staging files, and
    // the entry parses + serves a fresh cache as a disk hit.
    const std::string entry = sole_entry(dir_.path);
    for (const auto& e : fs::directory_iterator(dir_.path))
        EXPECT_EQ(e.path().extension(), ".json") << "leftover file " << e.path();
    ASSERT_NO_THROW((void)Json::parse_file(entry));
    PlanCache verify(8);
    verify.set_store_dir(dir_.path);
    (void)verify.get_or_build(r0.trace, &r0.prof, cfg);
    EXPECT_EQ(verify.stats().disk_hits, 1u);
    EXPECT_EQ(verify.stats().builds, 0u);
}

// ---------------------------------------------------------------------------
// Fault-injected writeback/read matrix (common/fault_injection.h): every
// injectable I/O failure leaves the store *consistent* — the faulted
// operation is absorbed or quarantined, no `.tmp.*` staging file survives,
// and the next fetch rebuilds and re-persists so the store heals.
// ---------------------------------------------------------------------------

class PlanStoreFaults : public ::testing::Test {
  protected:
    ~PlanStoreFaults() override { FaultInjection::instance().disarm_all(); }

    std::size_t count_tmp_files() const
    {
        std::size_t n = 0;
        for (const auto& e : fs::directory_iterator(dir_.path))
            if (e.path().filename().string().find(".tmp.") != std::string::npos)
                ++n;
        return n;
    }

    std::size_t count_entries() const
    {
        std::size_t n = 0;
        for (const auto& e : fs::directory_iterator(dir_.path))
            if (e.path().extension() == ".json")
                ++n;
        return n;
    }

    /// Arms @p site, runs one get_or_build + flush (the faulted phase), then
    /// disarms and asserts: no exception leaked, no temp turd, no published
    /// entry — and a clean retry persists an entry that serves a fresh cache
    /// as a disk hit.
    void expect_writeback_failure_is_absorbed(const char* site)
    {
        const auto& r0 = traced("param_linear").rank0();
        const ReplayConfig cfg = tiny_replay();

        FaultInjection::instance().arm(site, 1, FaultMode::kEvery);
        {
            PlanCache cache(8);
            cache.set_store_dir(dir_.path);
            std::shared_ptr<const ReplayPlan> plan;
            // The caller always gets a correct plan; the disk failure is the
            // store's problem, not the replay's.
            ASSERT_NO_THROW(plan = cache.get_or_build(r0.trace, &r0.prof, cfg)) << site;
            ASSERT_NE(plan, nullptr) << site;
            cache.flush_writebacks(); // fault fires inside this writeback
        }
        FaultInjection::instance().disarm_all();

        EXPECT_EQ(count_tmp_files(), 0u) << site << ": staging turd left behind";
        EXPECT_EQ(count_entries(), 0u) << site << ": partial entry published";

        // Next get rebuilds (nothing usable on disk) and re-persists.
        PlanCache retry(8);
        retry.set_store_dir(dir_.path);
        (void)retry.get_or_build(r0.trace, &r0.prof, cfg);
        retry.flush_writebacks();
        EXPECT_EQ(retry.stats().builds, 1u) << site;
        EXPECT_EQ(retry.stats().writebacks, 1u) << site;
        sole_entry(dir_.path);

        PlanCache healed(8);
        healed.set_store_dir(dir_.path);
        (void)healed.get_or_build(r0.trace, &r0.prof, cfg);
        EXPECT_EQ(healed.stats().disk_hits, 1u) << site;
        EXPECT_EQ(healed.stats().builds, 0u) << site;
    }

    ScopedDir dir_{"myst_plan_store_test"};
};

TEST_F(PlanStoreFaults, RenameFailureIsAbsorbedAndStoreHeals)
{
    expect_writeback_failure_is_absorbed("fs.rename");
}

TEST_F(PlanStoreFaults, ShortWriteIsAbsorbedAndStoreHeals)
{
    expect_writeback_failure_is_absorbed("fs.write_short");
}

TEST_F(PlanStoreFaults, FsyncFailureIsAbsorbedAndStoreHeals)
{
    expect_writeback_failure_is_absorbed("fs.write_fsync");
}

TEST_F(PlanStoreFaults, WriteOpenFailureIsAbsorbedAndStoreHeals)
{
    expect_writeback_failure_is_absorbed("fs.write_open");
}

TEST_F(PlanStoreFaults, SerializationFailureIsAbsorbedAndStoreHeals)
{
    expect_writeback_failure_is_absorbed("store.writeback");
}

TEST_F(PlanStoreFaults, ReadFailureQuarantinesRebuildsAndRepersists)
{
    const auto& r0 = traced("param_linear").rank0();
    const ReplayConfig cfg = tiny_replay();

    // Seed a valid entry first.
    {
        PlanCache seeder(8);
        seeder.set_store_dir(dir_.path);
        (void)seeder.get_or_build(r0.trace, &r0.prof, cfg);
        seeder.flush_writebacks();
    }
    const std::string entry = sole_entry(dir_.path);

    // A fresh cache whose disk read fails mid-flight: the unreadable entry
    // quarantines, the plan is rebuilt, and the rebuild re-persists.
    FaultInjection::instance().arm("fs.read", 1, FaultMode::kOnce);
    PlanCache cache(8);
    cache.set_store_dir(dir_.path);
    std::shared_ptr<const ReplayPlan> plan;
    ASSERT_NO_THROW(plan = cache.get_or_build(r0.trace, &r0.prof, cfg));
    ASSERT_NE(plan, nullptr);
    cache.flush_writebacks();
    FaultInjection::instance().disarm_all();

    EXPECT_EQ(cache.stats().disk_misses, 1u);
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_TRUE(fs::exists(entry + ".bad")) << "unreadable entry not quarantined";
    EXPECT_EQ(count_tmp_files(), 0u);
    sole_entry(dir_.path); // the rebuild re-persisted a fresh entry

    PlanCache healed(8);
    healed.set_store_dir(dir_.path);
    (void)healed.get_or_build(r0.trace, &r0.prof, cfg);
    EXPECT_EQ(healed.stats().disk_hits, 1u);
    EXPECT_EQ(healed.stats().builds, 0u);
}

TEST_F(PlanStoreFaults, InjectedLoadCorruptionQuarantinesAndRebuilds)
{
    const auto& r0 = traced("param_linear").rank0();
    const ReplayConfig cfg = tiny_replay();
    {
        PlanCache seeder(8);
        seeder.set_store_dir(dir_.path);
        (void)seeder.get_or_build(r0.trace, &r0.prof, cfg);
        seeder.flush_writebacks();
    }
    const std::string entry = sole_entry(dir_.path);

    FaultInjection::instance().arm("store.load", 1, FaultMode::kOnce);
    PlanCache cache(8);
    cache.set_store_dir(dir_.path);
    ASSERT_NO_THROW((void)cache.get_or_build(r0.trace, &r0.prof, cfg));
    cache.flush_writebacks();
    FaultInjection::instance().disarm_all();

    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_TRUE(fs::exists(entry + ".bad"));
    EXPECT_EQ(count_tmp_files(), 0u);
}

TEST_F(PlanStoreFaults, MalformedFaultSpecFailsTheFetchAndKeepsTheEntry)
{
    const auto& r0 = traced("param_linear").rank0();
    const ReplayConfig cfg = tiny_replay();
    {
        PlanCache seeder(8);
        seeder.set_store_dir(dir_.path);
        (void)seeder.get_or_build(r0.trace, &r0.prof, cfg);
        seeder.flush_writebacks();
    }
    const std::string entry = sole_entry(dir_.path);

    // With a malformed spec every hook throws ConfigError, the fs.read one
    // inside PlanStore::load included.  That is a bad setting, not a bad
    // entry: the fetch fails and a store shared by a fleet keeps its entry.
    {
        const ScopedEnv bad_spec("MYST_FAULT", "fs.read:0");
        EXPECT_THROW(FaultInjection::instance().reload_env(), ConfigError);
    }
    {
        PlanCache cache(8);
        cache.set_store_dir(dir_.path);
        EXPECT_THROW((void)cache.get_or_build(r0.trace, &r0.prof, cfg), ConfigError);
        cache.flush_writebacks();
        EXPECT_EQ(cache.stats().builds, 0u);
    }
    FaultInjection::instance().disarm_all();

    EXPECT_TRUE(fs::exists(entry));
    EXPECT_FALSE(fs::exists(entry + ".bad")) << "a valid entry was quarantined";
    PlanCache healed(8);
    healed.set_store_dir(dir_.path);
    (void)healed.get_or_build(r0.trace, &r0.prof, cfg);
    EXPECT_EQ(healed.stats().disk_hits, 1u);
    EXPECT_EQ(healed.stats().builds, 0u);
}

// ---------------------------------------------------------------------------
// Direct PlanStore API edges.
// ---------------------------------------------------------------------------

TEST(PlanStoreApi, MissingDirectoryIsACleanMiss)
{
    const auto& r0 = traced("param_linear").rank0();
    const ReplayConfig cfg = tiny_replay();
    PlanStore store((fs::temp_directory_path() / "myst_plan_store_never_created").string());
    EXPECT_EQ(store.load(plan_key(r0.trace, &r0.prof, cfg),
                         std::make_shared<et::ExecutionTrace>(r0.trace)),
              nullptr);
}

TEST(PlanStoreApi, EntryPathEncodesTheFullKeyTuple)
{
    const auto& r0 = traced("param_linear").rank0();
    const ReplayConfig cfg = tiny_replay();
    ScopedDir dir("myst_plan_store_test");
    PlanStore store(dir.path);

    const PlanKey with_prof = plan_key(r0.trace, &r0.prof, cfg);
    const PlanKey without_prof = plan_key(r0.trace, nullptr, cfg);
    EXPECT_NE(store.entry_path(with_prof), store.entry_path(without_prof));

    ReplayConfig other = cfg;
    other.platform = "V100";
    EXPECT_NE(store.entry_path(plan_key(r0.trace, &r0.prof, other)),
              store.entry_path(with_prof));
}

} // namespace
} // namespace mystique::core
