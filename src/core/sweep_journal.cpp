#include "core/sweep_journal.h"

#include <bit>
#include <filesystem>
#include <string_view>

#include "common/error.h"
#include "common/fault_injection.h"
#include "common/fs_util.h"
#include "common/json.h"
#include "common/logging.h"

namespace mystique::core {

namespace {

/// Record version: v3 records are sealed lines (Json::dump_sealed); nothing
/// reads v2 or older any more.
constexpr int64_t kRecordVersion = 3;

/// Floating-point fields travel as from_u64 strings of their IEEE-754 bit
/// patterns: JSON doubles would round-trip through a formatter, and a
/// restored weighted mean must be *bit*-identical to the one the
/// interrupted sweep would have produced.
Json
record_to_json(const SweepJournalRecord& rec)
{
    Json j = Json::object();
    j.set("v", Json(kRecordVersion));
    j.set("sweep", Json::from_u64(rec.sweep_fp));
    j.set("group", Json::from_u64(rec.group_fp));
    j.set("status", Json(to_string(rec.status)));
    j.set("attempts", Json(static_cast<int64_t>(rec.attempts)));
    j.set("weight_bits", Json::from_u64(std::bit_cast<uint64_t>(rec.population_weight)));
    j.set("mean_bits", Json::from_u64(std::bit_cast<uint64_t>(rec.mean_iter_us)));
    Json iters = Json::array();
    for (double it : rec.iter_us)
        iters.push_back(Json::from_u64(std::bit_cast<uint64_t>(it)));
    j.set("iter_us_bits", std::move(iters));
    j.set("error", Json(rec.error));
    return j;
}

/// Reads one journal line.  A line whose bytes changed after it was written
/// fails its seal, so its group replays instead of restoring a number the
/// sweep never produced.
SweepJournalRecord
record_from_line(std::string_view line)
{
    const Json j = Json::parse_sealed(line);
    if (j.at("v").as_int() != kRecordVersion)
        MYST_THROW(ParseError, "sweep journal: unknown record version");
    SweepJournalRecord rec;
    rec.sweep_fp = j.at("sweep").as_u64();
    rec.group_fp = j.at("group").as_u64();
    rec.status = group_status_from_string(j.at("status").as_string());
    const int64_t attempts = j.at("attempts").as_int();
    if (attempts < 0 || attempts > UINT32_MAX)
        MYST_THROW(ParseError, "sweep journal: attempts " << attempts << " out of range");
    rec.attempts = static_cast<uint32_t>(attempts);
    rec.population_weight = std::bit_cast<double>(j.at("weight_bits").as_u64());
    rec.mean_iter_us = std::bit_cast<double>(j.at("mean_bits").as_u64());
    for (const Json& it : j.at("iter_us_bits").as_array())
        rec.iter_us.push_back(std::bit_cast<double>(it.as_u64()));
    rec.error = j.at("error").as_string();
    return rec;
}

} // namespace

const char*
to_string(GroupStatus status)
{
    switch (status) {
    case GroupStatus::kOk: return "ok";
    case GroupStatus::kFailed: return "failed";
    case GroupStatus::kTimedOut: return "timed_out";
    case GroupStatus::kQuarantined: return "quarantined";
    case GroupStatus::kSkipped: return "skipped";
    }
    return "unknown";
}

GroupStatus
group_status_from_string(const std::string& text)
{
    for (GroupStatus s : {GroupStatus::kOk, GroupStatus::kFailed, GroupStatus::kTimedOut,
                          GroupStatus::kQuarantined, GroupStatus::kSkipped}) {
        if (text == to_string(s))
            return s;
    }
    MYST_THROW(ParseError, "sweep journal: unknown group status '" << text << "'");
}

SweepJournal::SweepJournal(const std::string& dir)
    : path_((std::filesystem::path(dir) / "sweep_journal.jsonl").string())
{
}

std::size_t
SweepJournal::load()
{
    std::lock_guard<std::mutex> lock(mu_);
    records_.clear();

    std::string text;
    try {
        if (FaultInjection::instance().should_fail("journal.load"))
            MYST_THROW(ParseError, "injected fault: sweep journal unreadable");
        if (!std::filesystem::exists(path_))
            return 0; // no journal yet: a fresh sweep, not an error
        text = read_file(path_);
    } catch (const std::exception& e) {
        MYST_WARN("sweep journal '" << path_ << "' unreadable, starting fresh: "
                                    << e.what());
        return 0;
    }

    std::size_t bad_lines = 0;
    std::size_t begin = 0;
    while (begin < text.size()) {
        std::size_t end = text.find('\n', begin);
        if (end == std::string::npos)
            end = text.size();
        const std::string_view line(text.data() + begin, end - begin);
        begin = end + 1;
        if (line.empty())
            continue;
        try {
            records_.push_back(record_from_line(line));
        } catch (const std::exception&) {
            // A torn, hand-damaged or unsealed line invalidates itself, not
            // the file: every sealed record around it still counts.
            ++bad_lines;
        }
    }
    if (bad_lines > 0)
        MYST_WARN("sweep journal '" << path_ << "': skipped " << bad_lines
                                    << " unparseable or unsealed line(s)");
    return records_.size();
}

bool
SweepJournal::append(const SweepJournalRecord& rec)
{
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(rec);
    try {
        if (FaultInjection::instance().should_fail("journal.write"))
            MYST_THROW(MystiqueError, "injected fault: sweep journal append failed");
        append_file(path_, record_to_json(rec).dump_sealed() + '\n');
        return true;
    } catch (const std::exception& e) {
        MYST_WARN("sweep journal '" << path_ << "' append failed (journaling is "
                                    << "best-effort): " << e.what());
        return false;
    }
}

std::optional<SweepJournalRecord>
SweepJournal::completed(uint64_t sweep_fp, uint64_t group_fp) const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Latest record wins: a failure recorded after a success (a later, sicker
    // run) means the success is stale evidence, so scan from the back.
    for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
        if (it->sweep_fp != sweep_fp || it->group_fp != group_fp)
            continue;
        if (it->status == GroupStatus::kOk)
            return *it;
        return std::nullopt;
    }
    return std::nullopt;
}

int
SweepJournal::consecutive_failures(uint64_t group_fp) const
{
    std::lock_guard<std::mutex> lock(mu_);
    int streak = 0;
    for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
        if (it->group_fp != group_fp)
            continue;
        if (it->status == GroupStatus::kOk)
            break; // success resets the streak: quarantine heals
        ++streak;
    }
    return streak;
}

std::optional<SweepJournalRecord>
SweepJournal::last_failure(uint64_t group_fp) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
        if (it->group_fp == group_fp && it->status != GroupStatus::kOk)
            return *it;
    }
    return std::nullopt;
}

} // namespace mystique::core
