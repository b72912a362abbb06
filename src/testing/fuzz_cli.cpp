#include "testing/fuzz_cli.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#ifdef _WIN32
#include <process.h>
#define MYST_GETPID _getpid
#else
#include <unistd.h>
#define MYST_GETPID getpid
#endif

#include "common/error.h"
#include "common/fault_injection.h"
#include "common/string_util.h"
#include "testing/differential.h"
#include "testing/fault_churn.h"
#include "testing/trace_fuzzer.h"

namespace mystique::testing {

namespace {

void
print_usage(std::FILE* err, const char* prog)
{
    std::fprintf(err,
                 "usage: %s [--seed N] [--iters N] [--case S] [--churn] "
                 "[--churn-site SITE] [--churn-dir DIR]\n",
                 prog);
}

void
print_churn_report(std::FILE* out, const ChurnReport& r, uint64_t seed)
{
    if (!r.ok())
        std::fprintf(out, "FAIL churn site=%s seed=%llu: %s\n", r.site.c_str(),
                     static_cast<unsigned long long>(seed),
                     r.detail.empty() ? "contract violated" : r.detail.c_str());
    std::fprintf(out,
                 "churn site=%-22s ops=%llu fired=%llu leaked=%llu tmp=%llu "
                 "quarantined=%llu heal_builds=%llu %s\n",
                 r.site.c_str(), static_cast<unsigned long long>(r.operations),
                 static_cast<unsigned long long>(r.faults_fired),
                 static_cast<unsigned long long>(r.exceptions),
                 static_cast<unsigned long long>(r.tmp_files),
                 static_cast<unsigned long long>(r.quarantined),
                 static_cast<unsigned long long>(r.heal_builds),
                 r.ok() ? "ok" : "VIOLATED");
}

} // namespace

int
run_fuzz_cli(int argc, const char* const* argv, std::FILE* out, std::FILE* err)
{
    const char* prog = argc > 0 ? argv[0] : "mystique-fuzz";

    uint64_t base_seed = 7;
    uint64_t iters = 25;
    bool have_case = false;
    uint64_t one_case = 0;
    bool churn = false;
    std::string churn_site;
    std::string churn_dir;

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        const bool has_value = i + 1 < argc;
        auto value = [&]() -> const char* { return argv[++i]; };
        auto numeric = [&](uint64_t& into) -> bool {
            if (!has_value) {
                std::fprintf(err, "mystique-fuzz: %s needs a value\n", arg);
                return false;
            }
            const char* text = value();
            const std::optional<uint64_t> v = parse_u64(text);
            if (!v.has_value()) {
                std::fprintf(err, "mystique-fuzz: bad value for %s: '%s'\n", arg, text);
                return false;
            }
            into = *v;
            return true;
        };
        if (std::strcmp(arg, "--seed") == 0) {
            if (!numeric(base_seed))
                return 2;
        } else if (std::strcmp(arg, "--iters") == 0) {
            if (!numeric(iters))
                return 2;
        } else if (std::strcmp(arg, "--case") == 0) {
            have_case = true;
            if (!numeric(one_case))
                return 2;
        } else if (std::strcmp(arg, "--churn") == 0) {
            churn = true;
        } else if (std::strcmp(arg, "--churn-site") == 0) {
            if (!has_value) {
                std::fprintf(err, "mystique-fuzz: %s needs a value\n", arg);
                return 2;
            }
            churn = true;
            churn_site = value();
        } else if (std::strcmp(arg, "--churn-dir") == 0) {
            if (!has_value) {
                std::fprintf(err, "mystique-fuzz: %s needs a value\n", arg);
                return 2;
            }
            churn_dir = value();
        } else {
            print_usage(err, prog);
            return 2;
        }
    }

    if (!churn_site.empty()) {
        const std::vector<std::string>& sites = fault_sites();
        if (std::find(sites.begin(), sites.end(), churn_site) == sites.end()) {
            std::fprintf(err, "mystique-fuzz: unknown fault site '%s' (see --help of "
                              "MYST_FAULT in docs/env_vars.md)\n",
                         churn_site.c_str());
            return 2;
        }
    }

    uint64_t faults_fired = 0;
    uint64_t faults_survived = 0;
    uint64_t churn_violations = 0;

    if (churn) {
        if (churn_dir.empty()) {
            churn_dir = (std::filesystem::temp_directory_path() /
                         ("mystique-fuzz-churn-" + std::to_string(MYST_GETPID())))
                            .string();
        }
        std::filesystem::create_directories(churn_dir);
        std::vector<ChurnReport> reports;
        if (!churn_site.empty())
            reports.push_back(run_churn_site(churn_site, churn_dir, base_seed));
        else
            reports = run_churn_all(churn_dir, base_seed);
        for (const ChurnReport& r : reports) {
            faults_fired += r.faults_fired;
            faults_survived += r.faults_fired;
            if (!r.ok()) {
                ++churn_violations;
                faults_survived -= r.faults_fired; // this site's faults broke through
            }
            print_churn_report(out, r, base_seed);
        }
        std::filesystem::remove_all(churn_dir);
    }

    DifferentialOracle oracle;
    if (!churn || have_case) {
        std::vector<FuzzedCase> cases;
        if (have_case) {
            cases.push_back(generate_case(one_case));
        } else {
            cases.reserve(iters);
            for (uint64_t i = 0; i < iters; ++i)
                cases.push_back(generate_case(case_seed(base_seed, i)));
        }
        for (const FuzzedCase& c : cases)
            oracle.check_case(c);
        oracle.check_sweep(cases);

        // The reproduce hint names the failing check too: a `--case <seed>`
        // rerun executes every check, so the pasted line must say which one
        // the report was about without the runner digging up this log again.
        for (const DiffFailure& f : oracle.failures())
            std::fprintf(out,
                         "FAIL case-seed=%llu check=%s: %s\n    reproduce: %s --case "
                         "%llu  (expect check=%s to fail)\n",
                         static_cast<unsigned long long>(f.seed), f.check.c_str(),
                         f.detail.c_str(), prog,
                         static_cast<unsigned long long>(f.seed), f.check.c_str());
    }

    const DiffCounters& n = oracle.counters();
    const bool ok = oracle.ok() && churn_violations == 0;
    std::fprintf(out,
                 "mystique-fuzz: traces=%llu checks=%llu mismatches=%llu "
                 "replay_digest=%016llx faults_fired=%llu faults_survived=%llu status=%s\n",
                 static_cast<unsigned long long>(n.traces),
                 static_cast<unsigned long long>(n.checks),
                 static_cast<unsigned long long>(n.mismatches),
                 static_cast<unsigned long long>(n.replay_digest),
                 static_cast<unsigned long long>(faults_fired),
                 static_cast<unsigned long long>(faults_survived),
                 ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
}

} // namespace mystique::testing
