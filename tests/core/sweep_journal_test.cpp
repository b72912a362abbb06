/// SweepJournal unit tests: bit-exact record round-trips, torn-line
/// tolerance, record seals, old record versions, appends that leave earlier
/// lines and other journals' records alone, latest-record-wins resume
/// lookups, the quarantine streak and its healing, and best-effort appends
/// under injected journal faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/fault_injection.h"
#include "common/fs_util.h"
#include "common/hash.h"
#include "common/json.h"
#include "core/sweep_journal.h"

namespace mystique::core {
namespace {

namespace fs = std::filesystem;

struct TempDir {
    TempDir()
    {
        static int counter = 0;
        path = (fs::temp_directory_path() /
                ("myst_journal_test_" + std::to_string(counter++)))
                   .string();
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string path;
};

uint64_t
bits(double v)
{
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

SweepJournalRecord
ok_record(uint64_t sweep, uint64_t group, double mean)
{
    SweepJournalRecord rec;
    rec.sweep_fp = sweep;
    rec.group_fp = group;
    rec.status = GroupStatus::kOk;
    rec.attempts = 1;
    rec.population_weight = 0.25;
    rec.iter_us = {mean - 0.5, mean + 0.5};
    rec.mean_iter_us = mean;
    return rec;
}

SweepJournalRecord
failed_record(uint64_t sweep, uint64_t group, const std::string& error)
{
    SweepJournalRecord rec;
    rec.sweep_fp = sweep;
    rec.group_fp = group;
    rec.status = GroupStatus::kFailed;
    rec.attempts = 2;
    rec.error = error;
    rec.population_weight = 0.25;
    return rec;
}

TEST(SweepJournal, StatusStringsRoundTrip)
{
    for (GroupStatus s : {GroupStatus::kOk, GroupStatus::kFailed, GroupStatus::kTimedOut,
                          GroupStatus::kQuarantined, GroupStatus::kSkipped})
        EXPECT_EQ(group_status_from_string(to_string(s)), s);
    EXPECT_THROW(group_status_from_string("sideways"), ParseError);
}

TEST(SweepJournal, RecordsRoundTripBitExactly)
{
    TempDir dir;
    // Awkward doubles on purpose: a denormal, a value with no short decimal
    // form, and a negative zero — the bit-pattern encoding must keep each.
    SweepJournalRecord rec = ok_record(0xDEADBEEF12345678ull, 42, 0.1 + 0.2);
    rec.iter_us = {5e-324, 0.1 + 0.2, -0.0};
    {
        SweepJournal j(dir.path);
        EXPECT_TRUE(j.append(rec));
        EXPECT_TRUE(j.append(failed_record(1, 43, "it broke")));
    }

    SweepJournal j2(dir.path);
    EXPECT_EQ(j2.load(), 2u);
    const auto got = j2.completed(rec.sweep_fp, rec.group_fp);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->attempts, 1u);
    EXPECT_EQ(bits(got->population_weight), bits(rec.population_weight));
    EXPECT_EQ(bits(got->mean_iter_us), bits(rec.mean_iter_us));
    ASSERT_EQ(got->iter_us.size(), rec.iter_us.size());
    for (std::size_t i = 0; i < rec.iter_us.size(); ++i)
        EXPECT_EQ(bits(got->iter_us[i]), bits(rec.iter_us[i]));

    const auto fail = j2.last_failure(43);
    ASSERT_TRUE(fail.has_value());
    EXPECT_EQ(fail->error, "it broke");
}

TEST(SweepJournal, TornLinesAreSkippedNotFatal)
{
    TempDir dir;
    {
        SweepJournal j(dir.path);
        EXPECT_TRUE(j.append(ok_record(1, 10, 100.0)));
        EXPECT_TRUE(j.append(ok_record(1, 11, 200.0)));
    }
    {
        // Simulate a crash mid-append by hand-tearing the file.
        std::ofstream f(dir.path + "/sweep_journal.jsonl", std::ios::app);
        f << "{\"v\":1,\"sweep\":\"1\",\"gro";
    }
    SweepJournal j(dir.path);
    EXPECT_EQ(j.load(), 2u); // the torn line invalidates itself, not the file
    EXPECT_TRUE(j.completed(1, 10).has_value());
    EXPECT_TRUE(j.completed(1, 11).has_value());
}

/// The journal's lines, in file order.
std::vector<std::string>
journal_lines(const std::string& dir)
{
    std::ifstream f(dir + "/sweep_journal.jsonl");
    std::vector<std::string> lines;
    for (std::string line; std::getline(f, line);)
        lines.push_back(line);
    return lines;
}

void
write_journal(const std::string& dir, const std::vector<std::string>& lines)
{
    std::ofstream f(dir + "/sweep_journal.jsonl", std::ios::trunc);
    for (const std::string& line : lines)
        f << line << '\n';
}

TEST(SweepJournal, RecordsFailingTheirSealAreSkipped)
{
    TempDir dir;
    {
        SweepJournal j(dir.path);
        EXPECT_TRUE(j.append(ok_record(1, 10, 100.0)));
        EXPECT_TRUE(j.append(ok_record(1, 11, 200.0)));
        EXPECT_TRUE(j.append(ok_record(1, 12, 300.0)));
        EXPECT_TRUE(j.append(ok_record(1, 13, 400.0)));
    }
    std::vector<std::string> lines = journal_lines(dir.path);
    ASSERT_EQ(lines.size(), 4u);
    for (const std::string& line : lines)
        EXPECT_NE(line.find("\"v\":3,"), std::string::npos) << line;

    // Group 11: one digit of mean_bits moves, so the record still parses
    // into a plausible mean the sweep never produced.
    const std::string key = "\"mean_bits\":\"";
    const std::size_t digits = lines[1].find(key) + key.size();
    const std::size_t last = lines[1].find('"', digits) - 1;
    lines[1][last] = lines[1][last] == '0' ? '1' : static_cast<char>(lines[1][last] - 1);
    // The seal is the last member: `,"seal":"<digits>"}`.
    const auto unsealed = [](const std::string& line) {
        return line.substr(0, line.find(",\"seal\":"));
    };
    const auto seal_of = [](const std::string& line) {
        return line.substr(line.find(",\"seal\":"));
    };
    // Group 12: the seal is gone.  Group 13: it carries group 10's seal.
    lines[2] = unsealed(lines[2]) + "}";
    lines[3] = unsealed(lines[3]) + seal_of(lines[0]);
    write_journal(dir.path, lines);

    SweepJournal j(dir.path);
    EXPECT_EQ(j.load(), 1u);
    EXPECT_TRUE(j.completed(1, 10).has_value());
    EXPECT_FALSE(j.completed(1, 11).has_value());
    EXPECT_FALSE(j.completed(1, 12).has_value());
    EXPECT_FALSE(j.completed(1, 13).has_value());
}

TEST(SweepJournal, V2LinesAreSkipped)
{
    TempDir dir;
    {
        SweepJournal j(dir.path);
        EXPECT_TRUE(j.append(ok_record(1, 10, 100.0)));
        EXPECT_TRUE(j.append(ok_record(1, 11, 200.0)));
        EXPECT_TRUE(j.append(ok_record(1, 12, 300.0)));
    }
    std::vector<std::string> lines = journal_lines(dir.path);
    ASSERT_EQ(lines.size(), 3u);
    // Group 11 as a v2 writer wrote it: its seal hashes the record's whole
    // compact JSON without the seal.  Group 12 carries "v":2 under a valid
    // v3 seal, so only the version check can turn it away.
    Json v2 = Json::parse_sealed(lines[1]);
    v2.set("v", Json(int64_t{2}));
    v2.set("seal", Json::from_u64(hash_bytes(v2.dump())));
    lines[1] = v2.dump();
    Json relabeled = Json::parse_sealed(lines[2]);
    relabeled.set("v", Json(int64_t{2}));
    lines[2] = relabeled.dump_sealed();
    write_journal(dir.path, lines);

    SweepJournal j(dir.path);
    EXPECT_EQ(j.load(), 1u);
    EXPECT_TRUE(j.completed(1, 10).has_value());
    EXPECT_FALSE(j.completed(1, 11).has_value());
    EXPECT_FALSE(j.completed(1, 12).has_value());
}

TEST(SweepJournal, JournalsSharingADirectoryKeepEveryRecord)
{
    // Two sweeps journaling to one directory, appending in turn: neither
    // may drop the records of the other.
    TempDir dir;
    SweepJournal a(dir.path);
    SweepJournal b(dir.path);
    for (uint64_t g = 0; g < 10; ++g)
        EXPECT_TRUE((g % 2 == 0 ? a : b).append(ok_record(1, g, 100.0 + g)));

    SweepJournal fresh(dir.path);
    EXPECT_EQ(fresh.load(), 10u);
    for (uint64_t g = 0; g < 10; ++g)
        EXPECT_TRUE(fresh.completed(1, g).has_value()) << g;
}

TEST(SweepJournal, AppendLeavesEveryEarlierByteAsItWas)
{
    TempDir dir;
    {
        SweepJournal j(dir.path);
        EXPECT_TRUE(j.append(ok_record(1, 10, 100.0)));
        EXPECT_TRUE(j.append(ok_record(1, 11, 200.0)));
    }
    // Group 11's line is edited by hand, so it fails its seal.
    std::vector<std::string> lines = journal_lines(dir.path);
    ASSERT_EQ(lines.size(), 2u);
    const std::size_t attempts = lines[1].find("\"attempts\":1,");
    ASSERT_NE(attempts, std::string::npos) << lines[1];
    lines[1][attempts + 11] = '7';
    write_journal(dir.path, lines);
    const std::string path = dir.path + "/sweep_journal.jsonl";
    const std::string before = read_file(path);

    SweepJournal j(dir.path);
    EXPECT_EQ(j.load(), 1u);
    EXPECT_TRUE(j.append(ok_record(1, 12, 300.0)));
    const std::string after = read_file(path);
    ASSERT_GT(after.size(), before.size());
    EXPECT_EQ(after.substr(0, before.size()), before);
    EXPECT_EQ(std::count(after.begin() + static_cast<std::ptrdiff_t>(before.size()), after.end(),
                         '\n'),
              1);

    // The edited line is still in the file, and still skipped.
    SweepJournal fresh(dir.path);
    EXPECT_EQ(fresh.load(), 2u);
    EXPECT_TRUE(fresh.completed(1, 10).has_value());
    EXPECT_FALSE(fresh.completed(1, 11).has_value());
    EXPECT_TRUE(fresh.completed(1, 12).has_value());
}

TEST(SweepJournal, AppendAfterATornTailStartsANewLine)
{
    TempDir dir;
    {
        SweepJournal j(dir.path);
        EXPECT_TRUE(j.append(ok_record(1, 10, 100.0)));
        EXPECT_TRUE(j.append(ok_record(1, 11, 200.0)));
    }
    {
        // A crash mid-append leaves a last line without its '\n'.
        std::ofstream f(dir.path + "/sweep_journal.jsonl", std::ios::app);
        f << "{\"v\":3,\"sweep\":\"1\",\"gro";
    }
    SweepJournal j(dir.path);
    EXPECT_EQ(j.load(), 2u);
    EXPECT_TRUE(j.append(ok_record(1, 12, 300.0)));

    // The torn line does not swallow the record appended after it.
    SweepJournal fresh(dir.path);
    EXPECT_EQ(fresh.load(), 3u);
    for (const uint64_t g : {10, 11, 12})
        EXPECT_TRUE(fresh.completed(1, g).has_value()) << g;
}

TEST(SweepJournal, LatestRecordWinsAndFailureInvalidatesStaleSuccess)
{
    TempDir dir;
    SweepJournal j(dir.path);
    EXPECT_TRUE(j.append(ok_record(1, 10, 100.0)));
    EXPECT_TRUE(j.completed(1, 10).has_value());

    // A failure recorded after the success is newer evidence: resume must
    // not serve the stale success.
    EXPECT_TRUE(j.append(failed_record(1, 10, "regressed")));
    EXPECT_FALSE(j.completed(1, 10).has_value());

    // Success recorded later wins again — and with an updated mean.
    EXPECT_TRUE(j.append(ok_record(1, 10, 150.0)));
    const auto got = j.completed(1, 10);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->mean_iter_us, 150.0);

    // Lookups are scoped to the sweep fingerprint.
    EXPECT_FALSE(j.completed(2, 10).has_value());
}

TEST(SweepJournal, QuarantineEngagesOnConsecutiveFailuresAndHeals)
{
    TempDir dir;
    SweepJournal j(dir.path);
    EXPECT_FALSE(j.quarantined(10));

    EXPECT_TRUE(j.append(failed_record(1, 10, "first")));
    EXPECT_EQ(j.consecutive_failures(10), 1);
    EXPECT_FALSE(j.quarantined(10));

    EXPECT_TRUE(j.append(failed_record(2, 10, "second")));
    EXPECT_EQ(j.consecutive_failures(10), 2);
    EXPECT_TRUE(j.quarantined(10));
    const auto fail = j.last_failure(10);
    ASSERT_TRUE(fail.has_value());
    EXPECT_EQ(fail->error, "second");

    // Other fingerprints are unaffected; interleaved records don't bleed.
    EXPECT_TRUE(j.append(failed_record(1, 11, "other")));
    EXPECT_EQ(j.consecutive_failures(11), 1);
    EXPECT_TRUE(j.quarantined(10));

    // A recorded success heals: the streak resets to zero.
    EXPECT_TRUE(j.append(ok_record(3, 10, 100.0)));
    EXPECT_EQ(j.consecutive_failures(10), 0);
    EXPECT_FALSE(j.quarantined(10));
}

TEST(SweepJournal, WriteFaultIsAbsorbedAndAccountingSurvivesInMemory)
{
    TempDir dir;
    FaultInjection& fi = FaultInjection::instance();
    fi.disarm_all();
    fi.arm("journal.write", 1, FaultMode::kEvery);

    SweepJournal j(dir.path);
    EXPECT_FALSE(j.append(failed_record(1, 10, "x"))); // the append fails...
    EXPECT_FALSE(j.append(failed_record(2, 10, "y")));
    EXPECT_EQ(j.consecutive_failures(10), 2); // ...but accounting still sees it
    EXPECT_TRUE(j.quarantined(10));
    fi.disarm_all();

    // Nothing was ever written, so a fresh journal starts empty.
    SweepJournal j2(dir.path);
    EXPECT_EQ(j2.load(), 0u);
    EXPECT_FALSE(j2.quarantined(10));

    // A later append writes only its own record, never the failed ones.
    EXPECT_TRUE(j.append(failed_record(3, 11, "z")));
    EXPECT_EQ(j2.load(), 1u);
    EXPECT_FALSE(j2.quarantined(10));
    EXPECT_EQ(j2.consecutive_failures(11), 1);
}

TEST(SweepJournal, LoadFaultWarnsAndStartsFresh)
{
    TempDir dir;
    {
        SweepJournal j(dir.path);
        EXPECT_TRUE(j.append(ok_record(1, 10, 100.0)));
    }
    FaultInjection& fi = FaultInjection::instance();
    fi.disarm_all();
    fi.arm("journal.load", 1, FaultMode::kOnce);
    SweepJournal j(dir.path);
    EXPECT_EQ(j.load(), 0u); // unreadable journal = fresh, not fatal
    fi.disarm_all();
    EXPECT_EQ(j.load(), 1u); // the file itself was never damaged
}

} // namespace
} // namespace mystique::core
