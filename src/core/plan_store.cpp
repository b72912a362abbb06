#include "core/plan_store.h"

#include <exception>
#include <filesystem>
#include <utility>

#include "common/error.h"
#include "common/fault_injection.h"
#include "common/fs_util.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace mystique::core {

namespace {

constexpr const char* kEntryFormat = "mystique-plan-store-entry";

/// The "plan" member is always the entry's last, so its raw bytes sit
/// between this marker and the file's closing brace — hashable without
/// re-serializing.  (The sequence cannot occur earlier: JSON escapes quotes
/// inside string values, and every head member has a fixed key.)
constexpr const char* kPlanMarker = ",\"plan\":";

} // namespace

PlanStore::PlanStore(std::string directory) : dir_(std::move(directory))
{
    MYST_CHECK_MSG(!dir_.empty(), "PlanStore needs a directory");
}

std::string
PlanStore::entry_path(const PlanKey& key) const
{
    MYST_CHECK_MSG(!key.is_partial(), "partial (one-shot) plan keys are never persisted");
    std::string name = "plan-" + hex64(key.trace_fp) + "-" + hex64(key.supported_fp) +
                       "-" + hex64(key.config_fp) + "-" + hex64(key.prof_fp) + "-" +
                       (key.has_prof ? "p" : "n") + ".json";
    return (std::filesystem::path(dir_) / name).string();
}

std::shared_ptr<const ReplayPlan>
PlanStore::load(const PlanKey& key, std::shared_ptr<const et::ExecutionTrace> trace) const
{
    const std::string path = entry_path(key);
    {
        std::error_code ec;
        if (!std::filesystem::exists(path, ec))
            return nullptr; // clean miss — nothing to quarantine
    }

    try {
        const std::string text = read_file(path);
        // Injectable corruption between read and parse (MYST_FAULT
        // store.load): exercises the quarantine path on entries whose bytes
        // arrive damaged, independent of how they got damaged.
        if (FaultInjection::instance().should_fail("store.load"))
            MYST_THROW(ParseError, "injected fault: plan store entry unreadable");
        const Json entry = Json::parse(text); // throws on truncated/zero-byte/garbage
        if (entry.get_string("format", "") != kEntryFormat)
            MYST_THROW(ParseError, "plan store entry: not a plan-store entry");
        if (entry.get_int("format_version", 0) != kPlanStoreFormatVersion)
            MYST_THROW(ParseError,
                       "plan store entry: stale schema version " +
                           std::to_string(entry.get_int("format_version", 0)));
        // A renamed/copied entry must not impersonate another key: the
        // embedded key has to match the one the file name addressed.
        if (PlanKey::from_json(entry.at("key")) != key)
            MYST_THROW(ParseError, "plan store entry: embedded key differs from the "
                                   "requested key (entry renamed or tampered)");

        // Whole-plan integrity: any edit inside the plan document — a
        // flipped kind, a reassigned stream, doctored IR — fails the
        // recorded content hash and quarantines, instead of replaying a
        // benchmark that differs from what the key promises.
        const std::size_t plan_pos = text.find(kPlanMarker);
        if (plan_pos == std::string::npos || text.back() != '}')
            MYST_THROW(ParseError, "plan store entry: missing plan section");
        const std::string_view plan_bytes(
            text.data() + plan_pos + std::char_traits<char>::length(kPlanMarker),
            text.size() - plan_pos - std::char_traits<char>::length(kPlanMarker) - 1);
        const std::optional<uint64_t> recorded =
            parse_u64(entry.at("plan_hash").as_string());
        if (!recorded.has_value())
            MYST_THROW(ParseError, "plan store entry: bad plan_hash");
        if (hash_bytes(plan_bytes) != *recorded)
            MYST_THROW(ParseError, "plan store entry: plan content does not match its "
                                   "recorded hash (entry corrupted or edited)");

        // from_json compiles the recorded IR against the caller's trace and
        // throws on kind drift vs this process's op registry — a drifted
        // entry quarantines below instead of silently replaying a different
        // benchmark.
        std::shared_ptr<const ReplayPlan> plan =
            ReplayPlan::from_json(entry.at("plan"), std::move(trace));
        if (plan->key() != key)
            MYST_THROW(ParseError,
                       "plan store entry: deserialized plan carries a different key");
        return plan;
    } catch (const std::exception& e) {
        MYST_WARN("plan store: quarantining '" << path << "': " << e.what());
        quarantine_file(path);
        return nullptr;
    }
}

bool
PlanStore::store(const ReplayPlan& plan) const
{
    try {
        if (FaultInjection::instance().should_fail("store.writeback"))
            MYST_THROW(MystiqueError, "injected fault: plan store writeback failed");
        const std::string plan_text = plan.to_json().dump();
        Json head = Json::object();
        head.set("format", Json(kEntryFormat));
        head.set("format_version", Json(kPlanStoreFormatVersion));
        head.set("key", plan.key().to_json());
        head.set("plan_hash", Json(std::to_string(hash_bytes(plan_text))));
        // Splice the plan in as the (hash-covered) last member; see
        // kPlanMarker.
        std::string text = head.dump();
        text.pop_back(); // the head's '}'
        text += kPlanMarker;
        text += plan_text;
        text += '}';
        atomic_write_file(entry_path(plan.key()), text);
        return true;
    } catch (const std::exception& e) {
        MYST_WARN("plan store: writeback to '" << dir_ << "' failed: " << e.what());
        return false;
    }
}

} // namespace mystique::core
