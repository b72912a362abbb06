#pragma once

/// @file
/// The mystique-fuzz CLI as a library function.
///
/// tools/mystique_fuzz.cpp is a two-line main over run_fuzz_cli() so the
/// CLI's behavior — flag parsing, check orchestration, report formatting,
/// exit codes — is unit-testable in-process (tests/testing/fuzz_cli_test.cpp)
/// instead of only observable by spawning the binary.  Streams are injected:
/// the real main passes stdout/stderr, tests pass tmpfile()s and assert on
/// what was printed.
///
/// Flags (see the usage string for the authoritative list):
///
///   --seed N         corpus base seed (default 7)
///   --iters N        corpus size (default 25)
///   --case S         re-run exactly one case seed (repro mode)
///   --churn          fault churn over every registered site
///   --churn-site S   fault churn over one named site
///   --churn-dir DIR  churn scratch directory (default: a fresh tmp dir)
///
/// Exit codes: 0 = all checks passed, 1 = mismatches or churn violations,
/// 2 = usage error (bad flag or value, or a malformed `MYST_FAULT`, rejected
/// before any case or churn runs).

#include <cstdio>

namespace mystique::testing {

/// Runs the whole CLI.  @p argv follows main() conventions (argv[0] is the
/// program name, echoed into reproduce hints); human-facing report lines go
/// to @p out, usage errors to @p err.  Returns the process exit code; never
/// calls exit() and never throws for bad user input.
int run_fuzz_cli(int argc, const char* const* argv, std::FILE* out, std::FILE* err);

} // namespace mystique::testing
