/// Fault-injection registry semantics (arm/disarm, once/every/delay modes,
/// MYST_FAULT parsing) and the fs_util durability contract under each
/// injectable failure: atomic_write_file must fsync before publishing, leave
/// the target untouched on any failure, and never leave a `.tmp.*` staging
/// turd behind a thrown error.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/fault_injection.h"
#include "common/fs_util.h"
#include "scoped_dir.h"
#include "scoped_env.h"

namespace mystique {
namespace {

namespace fs = std::filesystem;

/// Disarms on scope exit so a failing assertion cannot leak an armed fault
/// into the next test.
struct DisarmGuard {
    ~DisarmGuard() { FaultInjection::instance().disarm_all(); }
};

std::size_t
count_tmp_files(const std::string& dir)
{
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir))
        if (e.path().filename().string().find(".tmp.") != std::string::npos)
            ++n;
    return n;
}

// ---------------------------------------------------------------- registry

TEST(FaultInjection, DisarmedRegistryNeverFires)
{
    DisarmGuard guard;
    FaultInjection& fi = FaultInjection::instance();
    fi.disarm_all();
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(fi.should_fail("fs.read"));
    EXPECT_EQ(fi.total_fired(), 0u);
}

TEST(FaultInjection, OnceModeFiresExactlyOnTheNthHit)
{
    DisarmGuard guard;
    FaultInjection& fi = FaultInjection::instance();
    fi.arm("fs.read", 3, FaultMode::kOnce);
    EXPECT_FALSE(fi.should_fail("fs.read"));
    EXPECT_FALSE(fi.should_fail("fs.read"));
    EXPECT_TRUE(fi.should_fail("fs.read")); // hit 3
    EXPECT_FALSE(fi.should_fail("fs.read"));
    EXPECT_FALSE(fi.should_fail("fs.read"));
    EXPECT_EQ(fi.total_fired(), 1u);
}

TEST(FaultInjection, EveryModeFiresOnMultiples)
{
    DisarmGuard guard;
    FaultInjection& fi = FaultInjection::instance();
    fi.arm("fs.rename", 2, FaultMode::kEvery);
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        fired += fi.should_fail("fs.rename") ? 1 : 0;
    EXPECT_EQ(fired, 5);
}

TEST(FaultInjection, ArmedSiteDoesNotAffectOtherSites)
{
    DisarmGuard guard;
    FaultInjection& fi = FaultInjection::instance();
    fi.arm("fs.rename", 1, FaultMode::kEvery);
    EXPECT_FALSE(fi.should_fail("fs.read"));
    EXPECT_TRUE(fi.should_fail("fs.rename"));
}

TEST(FaultInjection, RearmingResetsCounters)
{
    DisarmGuard guard;
    FaultInjection& fi = FaultInjection::instance();
    fi.arm("fs.read", 2, FaultMode::kOnce);
    EXPECT_FALSE(fi.should_fail("fs.read"));
    fi.arm("fs.read", 2, FaultMode::kOnce); // counters back to zero
    EXPECT_FALSE(fi.should_fail("fs.read"));
    EXPECT_TRUE(fi.should_fail("fs.read"));
}

TEST(FaultInjection, DelayModeNeverFails)
{
    DisarmGuard guard;
    FaultInjection& fi = FaultInjection::instance();
    fi.arm("pool.background_delay", 1, FaultMode::kDelay);
    // A delay-armed site still answers should_fail with false...
    EXPECT_FALSE(fi.should_fail("pool.background_delay"));
    // ...and maybe_delay counts as fired.
    fi.maybe_delay("pool.background_delay");
    EXPECT_EQ(fi.total_fired(), 1u);
}

TEST(FaultInjection, StatsTrackHitsAndFires)
{
    DisarmGuard guard;
    FaultInjection& fi = FaultInjection::instance();
    fi.arm("fs.read", 2, FaultMode::kEvery);
    for (int i = 0; i < 4; ++i)
        (void)fi.should_fail("fs.read");
    bool found = false;
    for (const FaultSiteStats& s : fi.stats()) {
        if (s.site == "fs.read") {
            found = true;
            EXPECT_EQ(s.hits, 4u);
            EXPECT_EQ(s.fired, 2u);
        }
    }
    EXPECT_TRUE(found);
}

TEST(FaultInjection, SiteCatalogCoversTheThreadedHooks)
{
    const std::vector<std::string>& sites = fault_sites();
    for (const char* expected : {"fs.write_open", "fs.write_short", "fs.write_fsync",
                                 "fs.rename", "fs.read", "store.load",
                                 "store.writeback", "pool.background_delay"}) {
        bool found = false;
        for (const std::string& s : sites)
            found = found || s == expected;
        EXPECT_TRUE(found) << expected << " missing from fault_sites()";
    }
}

// ------------------------------------------------------------- env parsing

TEST(FaultInjectionEnv, SpecArmsTheSite)
{
    DisarmGuard guard;
    const ScopedEnv env("MYST_FAULT", "fs.read:2:every");
    FaultInjection& fi = FaultInjection::instance();
    fi.reload_env();
    EXPECT_FALSE(fi.should_fail("fs.read"));
    EXPECT_TRUE(fi.should_fail("fs.read"));
}

TEST(FaultInjectionEnv, MultipleSpecsCommaSeparated)
{
    DisarmGuard guard;
    const ScopedEnv env("MYST_FAULT", "fs.read:1:every,fs.rename:1:every");
    FaultInjection& fi = FaultInjection::instance();
    fi.reload_env();
    EXPECT_TRUE(fi.should_fail("fs.read"));
    EXPECT_TRUE(fi.should_fail("fs.rename"));
}

TEST(FaultInjectionEnv, DefaultModeIsOnce)
{
    DisarmGuard guard;
    const ScopedEnv env("MYST_FAULT", "fs.read:1");
    FaultInjection& fi = FaultInjection::instance();
    fi.reload_env();
    EXPECT_TRUE(fi.should_fail("fs.read"));
    EXPECT_FALSE(fi.should_fail("fs.read")); // once, not every
}

TEST(FaultInjectionEnv, MalformedSpecsThrowConfigError)
{
    DisarmGuard guard;
    FaultInjection& fi = FaultInjection::instance();
    for (const char* bad : {"fs.read", "fs.read:0", "fs.read:x", "fs.read:1:sometimes",
                            "fs.read:1:every:extra", "fs.renme:1"}) {
        const ScopedEnv env("MYST_FAULT", bad);
        EXPECT_THROW(fi.reload_env(), ConfigError) << bad;
    }
    fi.reload_env(); // back to a clean registry
}

TEST(FaultInjection, ArmingAnUnknownSiteThrowsConfigError)
{
    DisarmGuard guard;
    FaultInjection& fi = FaultInjection::instance();
    EXPECT_THROW(fi.arm("fs.renme", 1, FaultMode::kEvery), ConfigError);
    EXPECT_FALSE(fi.should_fail("fs.renme"));
}

// ---------------------------------------- fs_util under injected failures

TEST(AtomicWriteFault, WriteOpenFailureLeavesNoTurdAndNoTarget)
{
    DisarmGuard guard;
    ScopedDir dir("myst_fault_test");
    const std::string target = dir.path + "/out.json";
    FaultInjection::instance().arm("fs.write_open", 1);
    EXPECT_THROW(atomic_write_file(target, "{}"), MystiqueError);
    EXPECT_FALSE(fs::exists(target));
    EXPECT_EQ(count_tmp_files(dir.path), 0u);
}

TEST(AtomicWriteFault, ShortWriteLeavesTargetUntouchedAndReapsTemp)
{
    DisarmGuard guard;
    ScopedDir dir("myst_fault_test");
    const std::string target = dir.path + "/out.json";
    atomic_write_file(target, "original content");

    FaultInjection::instance().arm("fs.write_short", 1);
    EXPECT_THROW(atomic_write_file(target, "replacement that never lands"),
                 MystiqueError);
    // Atomicity: the failed write is invisible — old bytes intact, partial
    // temp file reaped.
    EXPECT_EQ(read_file(target), "original content");
    EXPECT_EQ(count_tmp_files(dir.path), 0u);

    // And the next (clean) write succeeds over the same target.
    FaultInjection::instance().disarm_all();
    atomic_write_file(target, "second version");
    EXPECT_EQ(read_file(target), "second version");
}

TEST(AtomicWriteFault, FsyncFailureLeavesTargetUntouchedAndReapsTemp)
{
    DisarmGuard guard;
    ScopedDir dir("myst_fault_test");
    const std::string target = dir.path + "/out.json";
    atomic_write_file(target, "original content");
    FaultInjection::instance().arm("fs.write_fsync", 1);
    EXPECT_THROW(atomic_write_file(target, "never published"), MystiqueError);
    EXPECT_EQ(read_file(target), "original content");
    EXPECT_EQ(count_tmp_files(dir.path), 0u);
}

TEST(AtomicWriteFault, RenameFailureLeavesTargetUntouchedAndReapsTemp)
{
    DisarmGuard guard;
    ScopedDir dir("myst_fault_test");
    const std::string target = dir.path + "/out.json";
    atomic_write_file(target, "original content");
    FaultInjection::instance().arm("fs.rename", 1);
    EXPECT_THROW(atomic_write_file(target, "fully written, never renamed"),
                 MystiqueError);
    EXPECT_EQ(read_file(target), "original content");
    EXPECT_EQ(count_tmp_files(dir.path), 0u);
}

TEST(AtomicWriteFault, ReadFaultThrowsParseError)
{
    DisarmGuard guard;
    ScopedDir dir("myst_fault_test");
    const std::string target = dir.path + "/in.json";
    atomic_write_file(target, "bytes");
    FaultInjection::instance().arm("fs.read", 1);
    EXPECT_THROW((void)read_file(target), ParseError);
    // Reads are side-effect free: the file is fine afterwards.
    FaultInjection::instance().disarm_all();
    EXPECT_EQ(read_file(target), "bytes");
}

TEST(AtomicWriteFault, EveryModeSurvivesARetryLoop)
{
    // The caller-visible contract behind "no turd per failure": a writer
    // retrying through repeated faults accumulates zero staging files and
    // eventually publishes.
    DisarmGuard guard;
    ScopedDir dir("myst_fault_test");
    const std::string target = dir.path + "/out.json";
    FaultInjection::instance().arm("fs.rename", 2, FaultMode::kEvery);
    int failures = 0;
    for (int attempt = 0; attempt < 6; ++attempt) {
        try {
            atomic_write_file(target, "attempt " + std::to_string(attempt));
        } catch (const MystiqueError&) {
            ++failures;
        }
    }
    EXPECT_GT(failures, 0);
    EXPECT_EQ(count_tmp_files(dir.path), 0u);
    EXPECT_TRUE(fs::exists(target));
}

} // namespace
} // namespace mystique
