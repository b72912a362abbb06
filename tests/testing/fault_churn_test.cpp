/// The headline robustness proof: for EVERY registered fault site, an
/// 8-thread cache-churn run with the fault firing repeatedly must end with
/// zero leaked exceptions, zero torn `.tmp.*` files, only correct plans
/// served, and a store that heals to all-disk-hits once the fault clears.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "scoped_dir.h"
#include "testing/fault_churn.h"

namespace mystique::testing {
namespace {

std::string
describe(const ChurnReport& r)
{
    return "site=" + r.site + " ops=" + std::to_string(r.operations) +
           " fired=" + std::to_string(r.faults_fired) +
           " leaked=" + std::to_string(r.exceptions) +
           " tmp=" + std::to_string(r.tmp_files) +
           " heal_builds=" + std::to_string(r.heal_builds) +
           (r.detail.empty() ? "" : (" detail: " + r.detail));
}

TEST(FaultChurn, EverySiteSurvivesEightThreadChurnAndHeals)
{
    ScopedDir root("myst_churn_test");
    const std::vector<ChurnReport> reports =
        run_churn_all(root.path, /*seed=*/7, /*threads=*/8, /*ops_per_thread=*/8);

    ASSERT_EQ(reports.size(), fault_sites().size());
    for (const ChurnReport& r : reports) {
        EXPECT_TRUE(r.ok()) << describe(r);
        EXPECT_EQ(r.exceptions, 0u) << describe(r);
        EXPECT_EQ(r.tmp_files, 0u) << describe(r);
        EXPECT_TRUE(r.healed) << describe(r);
        EXPECT_EQ(r.heal_builds, 0u) << describe(r);
        EXPECT_GT(r.operations, 0u) << describe(r);
    }

    // run_churn disarms on return: nothing may leak into later tests.
    EXPECT_FALSE(FaultInjection::instance().should_fail("fs.rename"));
}

TEST(FaultChurn, FaultsActuallyFireDuringChurn)
{
    // A churn pass that never triggers its fault proves nothing.  The fs
    // write-path sites sit on every writeback, so firing is deterministic.
    ScopedDir root("myst_churn_test");
    const ChurnReport r =
        run_churn("fs.rename", root.path + "/rename", /*seed=*/11, /*threads=*/8,
                  /*ops_per_thread=*/8);
    EXPECT_GT(r.faults_fired, 0u) << describe(r);
    EXPECT_TRUE(r.ok()) << describe(r);
}

TEST(FaultChurn, SweepSitesSurviveConcurrentDriverChurn)
{
    // The sweep-resilience sites churn through real ReplayDriver sweeps —
    // two concurrent drivers at parallelism 4 sharing one journal — and must
    // uphold the same contract: faults actually fire, nothing escapes, the
    // journal never tears, and a post-churn sweep is bit-identical to the
    // pre-churn reference.
    ScopedDir root("myst_churn_test");
    for (const std::string site : {"sweep.group", "journal.write", "journal.load"}) {
        const ChurnReport r = run_sweep_churn(site, root.path + "/" + site, /*seed=*/7);
        EXPECT_GT(r.faults_fired, 0u) << describe(r);
        EXPECT_TRUE(r.ok()) << describe(r);
        EXPECT_EQ(r.exceptions, 0u) << describe(r);
        EXPECT_EQ(r.tmp_files, 0u) << describe(r);
        EXPECT_EQ(r.heal_builds, 0u) << describe(r);
        EXPECT_GT(r.operations, 0u) << describe(r);
    }
}

TEST(FaultChurn, ReportIsReproducibleForAFixedSeed)
{
    // Same (site, seed) ⇒ same trace working set.  Thread interleaving makes
    // exact fire counts racy, but the *verdict* and the deterministic fields
    // must match run to run.
    ScopedDir root("myst_churn_test");
    const ChurnReport a =
        run_churn("store.load", root.path + "/a", 5, /*threads=*/4, /*ops_per_thread=*/6);
    const ChurnReport b =
        run_churn("store.load", root.path + "/b", 5, /*threads=*/4, /*ops_per_thread=*/6);
    EXPECT_EQ(a.ok(), b.ok()) << describe(a) << " vs " << describe(b);
    EXPECT_EQ(a.operations, b.operations);
    EXPECT_EQ(a.heal_builds, b.heal_builds);
}

} // namespace
} // namespace mystique::testing
