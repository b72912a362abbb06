/// Differential-oracle smoke corpus: a fixed-seed batch of fuzzed cases must
/// pass every equivalence check (replay-vs-direct, opt-level invariance,
/// plan round-trip, key stability) plus the K=1-vs-K=4 sweep bit-identity
/// check, with counters that add up.  This is the in-tree slice of the
/// 500-trace acceptance corpus the `mystique-fuzz` CLI runs in CI.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "testing/differential.h"
#include "testing/trace_fuzzer.h"

namespace mystique::testing {
namespace {

std::string
describe_failures(const DifferentialOracle& oracle)
{
    std::string out;
    for (const DiffFailure& f : oracle.failures())
        out += "case-seed=" + std::to_string(f.seed) + " check=" + f.check + ": " +
               f.detail + "\n";
    return out;
}

TEST(DifferentialOracle, FixedSeedCorpusPassesAllChecks)
{
    constexpr uint64_t kBaseSeed = 7;
    constexpr uint64_t kCases = 12;

    DifferentialOracle oracle;
    std::vector<FuzzedCase> corpus;
    corpus.reserve(kCases);
    for (uint64_t i = 0; i < kCases; ++i) {
        corpus.push_back(generate_case(case_seed(kBaseSeed, i)));
        oracle.check_case(corpus.back());
    }
    oracle.check_sweep(corpus);

    EXPECT_TRUE(oracle.ok()) << describe_failures(oracle);
    EXPECT_EQ(oracle.counters().traces, kCases);
    EXPECT_EQ(oracle.counters().mismatches, oracle.failures().size());
    // Five per-case checks (replay-vs-direct, opt-level, plan round-trip,
    // key stability, stream identity) plus the two corpus-level sweep
    // checks (parallelism invariance and journal resume / resilience) under
    // each executor.
    EXPECT_EQ(oracle.counters().checks, kCases * 5 + 4);
}

TEST(DifferentialOracle, SweepCheckHandlesEmptyAndSingletonCorpora)
{
    DifferentialOracle oracle;
    oracle.check_sweep({}); // no cases: nothing to compare, nothing to crash

    const std::vector<FuzzedCase> one{generate_case(case_seed(3, 0))};
    oracle.check_sweep(one);
    EXPECT_TRUE(oracle.ok()) << describe_failures(oracle);
}

} // namespace
} // namespace mystique::testing
