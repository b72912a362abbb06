/// The robustness CLI: fuzz corpus + differential oracle + fault churn.
///
///   mystique-fuzz [--seed N] [--iters N]     # fuzz N cases, all checks
///   mystique-fuzz --case S                   # re-run one case seed (repro)
///   mystique-fuzz --churn [--churn-dir DIR]  # fault churn, every site
///   mystique-fuzz --churn-site SITE          # fault churn, one site
///
/// --iters defaults to 25; CI runs the fixed `--seed 7` smoke corpus and one
/// churn pass (see scripts/ci.sh).  Every
/// failure line carries the *case seed* and the *failing check name* (the
/// reproduce hint repeats both); `--case <seed>` reproduces that exact
/// trace, config and checks, regardless of the corpus it came from.
///
/// Exit status: 0 = all checks passed; 1 = mismatches or churn violations;
/// 2 = usage error.
///
/// All behavior lives in testing::run_fuzz_cli (src/testing/fuzz_cli.h) so
/// the unit suite exercises it in-process; this file only binds the real
/// process streams.

#include <cstdio>

#include "testing/fuzz_cli.h"

int
main(int argc, char** argv)
{
    return mystique::testing::run_fuzz_cli(argc, argv, stdout, stderr);
}
