/// In-process coverage for the mystique-fuzz CLI (testing/fuzz_cli.h):
/// flag parsing and usage errors (exit 2), a malformed MYST_FAULT (exit 2),
/// the summary-line format, a real passing corpus run (exit 0), a
/// deterministic oracle mismatch via an armed sweep.group fault (exit 1),
/// and single-site churn via --churn-site.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/fault_injection.h"
#include "scoped_env.h"
#include "testing/fuzz_cli.h"

namespace mystique::testing {
namespace {

/// Runs run_fuzz_cli with tmpfile()-backed streams and returns the exit
/// code; captured stream text lands in @p out / @p err.
int
run_cli(const std::vector<std::string>& args, std::string* out, std::string* err)
{
    std::vector<const char*> argv;
    argv.push_back("mystique-fuzz");
    for (const std::string& a : args)
        argv.push_back(a.c_str());

    std::FILE* fout = std::tmpfile();
    std::FILE* ferr = std::tmpfile();
    EXPECT_NE(fout, nullptr);
    EXPECT_NE(ferr, nullptr);
    const int rc = run_fuzz_cli(static_cast<int>(argv.size()), argv.data(), fout, ferr);

    auto slurp = [](std::FILE* f) {
        std::fflush(f);
        std::rewind(f);
        std::string text;
        char buf[4096];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, n);
        std::fclose(f);
        return text;
    };
    const std::string out_text = slurp(fout);
    const std::string err_text = slurp(ferr);
    if (out != nullptr)
        *out = out_text;
    if (err != nullptr)
        *err = err_text;
    return rc;
}

struct FaultGuard {
    FaultGuard() { FaultInjection::instance().disarm_all(); }
    ~FaultGuard() { FaultInjection::instance().disarm_all(); }
};

TEST(FuzzCli, SmallCorpusPassesAndSummarizes)
{
    FaultGuard guard;
    std::string out, err;
    const int rc = run_cli({"--seed", "7", "--iters", "2"}, &out, &err);
    EXPECT_EQ(rc, 0) << out << err;

    // The summary line is the CLI's machine-readable contract: one line,
    // fixed field order, status last.
    EXPECT_NE(out.find("mystique-fuzz: traces=2 checks="), std::string::npos) << out;
    EXPECT_NE(out.find(" mismatches=0 "), std::string::npos) << out;
    EXPECT_NE(out.find(" faults_fired=0 faults_survived=0 status=ok\n"),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("FAIL"), std::string::npos) << out;
}

/// The replay_digest=<16 hex> field of the summary line, or "" when absent.
std::string
replay_digest_field(const std::string& out)
{
    const std::string tag = " replay_digest=";
    const std::size_t at = out.find(tag);
    if (at == std::string::npos || at + tag.size() + 16 > out.size())
        return {};
    const std::string hex = out.substr(at + tag.size(), 16);
    if (hex.find_first_not_of("0123456789abcdef") != std::string::npos ||
        out[at + tag.size() + 16] != ' ')
        return {};
    return hex;
}

TEST(FuzzCli, ReplayDigestIsPrintedAndRepeatsForTheSameSeed)
{
    FaultGuard guard;
    std::string first, second, other;
    ASSERT_EQ(run_cli({"--seed", "7", "--iters", "2"}, &first, nullptr), 0) << first;
    ASSERT_EQ(run_cli({"--seed", "7", "--iters", "2"}, &second, nullptr), 0) << second;
    ASSERT_EQ(run_cli({"--seed", "8", "--iters", "2"}, &other, nullptr), 0) << other;
    const std::string digest = replay_digest_field(first);
    ASSERT_FALSE(digest.empty()) << first;
    EXPECT_EQ(replay_digest_field(second), digest) << second;
    EXPECT_NE(replay_digest_field(other), digest) << other;
}

TEST(FuzzCli, CaseReproducesExactlyOneSeed)
{
    FaultGuard guard;
    std::string out;
    const int rc = run_cli({"--case", "12345"}, &out, nullptr);
    EXPECT_EQ(rc, 0) << out;
    EXPECT_NE(out.find("traces=1 "), std::string::npos) << out;
}

TEST(FuzzCli, UsageErrorsExitTwo)
{
    FaultGuard guard;
    std::string err;

    EXPECT_EQ(run_cli({"--frobnicate"}, nullptr, &err), 2);
    EXPECT_NE(err.find("usage:"), std::string::npos) << err;

    EXPECT_EQ(run_cli({"--seed"}, nullptr, &err), 2);
    EXPECT_NE(err.find("--seed needs a value"), std::string::npos) << err;

    EXPECT_EQ(run_cli({"--seed", "banana"}, nullptr, &err), 2);
    EXPECT_NE(err.find("bad value for --seed: 'banana'"), std::string::npos) << err;

    EXPECT_EQ(run_cli({"--iters", "12x"}, nullptr, &err), 2);
    EXPECT_NE(err.find("bad value for --iters"), std::string::npos) << err;

    // Signs are not digits: "-1" must not wrap to 2^64 - 1.
    EXPECT_EQ(run_cli({"--seed", "-1"}, nullptr, &err), 2);
    EXPECT_NE(err.find("bad value for --seed: '-1'"), std::string::npos) << err;

    EXPECT_EQ(run_cli({"--case"}, nullptr, &err), 2);
    EXPECT_NE(err.find("--case needs a value"), std::string::npos) << err;

    EXPECT_EQ(run_cli({"--churn-site", "no.such.site"}, nullptr, &err), 2);
    EXPECT_NE(err.find("unknown fault site 'no.such.site'"), std::string::npos) << err;
}

TEST(FuzzCli, MalformedFaultSpecIsAUsageError)
{
    // Every fault hook would throw the spec's ConfigError, failing each
    // case's sweep checks with a reproduce hint that reproduces nothing
    // without the variable.  The CLI reports it once and runs nothing.
    FaultGuard guard;
    const ScopedEnv typo("MYST_FAULT", "fs.renme:1:every");
    EXPECT_THROW(FaultInjection::instance().reload_env(), ConfigError);
    std::string out, err;
    const int rc = run_cli({"--case", "99"}, &out, &err);
    EXPECT_EQ(rc, 2) << out << err;
    EXPECT_NE(err.find("fs.renme"), std::string::npos) << err;
    EXPECT_EQ(out.find("FAIL"), std::string::npos) << out;
}

TEST(FuzzCli, OracleMismatchExitsOneWithReproLine)
{
    // Arm one sweep.group fault: the oracle's sweep check requires all-ok
    // group statuses, so the CLI must fail deterministically — and print the
    // seed-carrying reproduce hint.
    FaultGuard guard;
    FaultInjection::instance().arm("sweep.group", 1, FaultMode::kOnce);
    std::string out;
    const int rc = run_cli({"--case", "99"}, &out, nullptr);
    EXPECT_EQ(rc, 1) << out;
    EXPECT_NE(out.find("FAIL case-seed=99 check=sweep-"), std::string::npos) << out;
    EXPECT_NE(out.find("reproduce: mystique-fuzz --case 99"), std::string::npos) << out;
    // The hint is self-describing: it names the check the rerun should watch.
    EXPECT_NE(out.find("(expect check=sweep-"), std::string::npos) << out;
    EXPECT_NE(out.find("status=FAILED"), std::string::npos) << out;
}

TEST(FuzzCli, ChurnSiteRunsExactlyOneSite)
{
    FaultGuard guard;
    const std::string dir =
        (std::filesystem::temp_directory_path() / "myst_fuzz_cli_churn_test").string();
    std::string out;
    const int rc =
        run_cli({"--churn-site", "journal.write", "--churn-dir", dir}, &out, nullptr);
    EXPECT_EQ(rc, 0) << out;
    EXPECT_NE(out.find("churn site=journal.write"), std::string::npos) << out;
    // One site only, and no corpus run rides along with churn-only mode.
    EXPECT_EQ(out.find("churn site=fs."), std::string::npos) << out;
    EXPECT_NE(out.find("traces=0 "), std::string::npos) << out;
    // The CLI reaps its scratch directory.
    EXPECT_FALSE(std::filesystem::exists(dir));
}

} // namespace
} // namespace mystique::testing
