#include "core/plan_store.h"

#include <exception>
#include <filesystem>
#include <utility>

#include "common/error.h"
#include "common/fault_injection.h"
#include "common/fs_util.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace mystique::core {

namespace {

constexpr const char* kEntryFormat = "mystique-plan-store-entry";

} // namespace

PlanStore::PlanStore(std::string directory) : dir_(std::move(directory))
{
    MYST_CHECK_MSG(!dir_.empty(), "PlanStore needs a directory");
}

std::string
PlanStore::entry_path(const PlanKey& key) const
{
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
        // Whole-entry integrity: any edit — a flipped kind, a reassigned
        // stream, doctored IR, a changed version — fails the seal and
        // quarantines, instead of replaying a benchmark that differs from
        // what the key promises.  Truncated, zero-byte and garbage entries
        // fail to parse.
        const Json entry = Json::parse_sealed(text);
        if (entry.at("format").as_string() != kEntryFormat)
            MYST_THROW(ParseError, "plan store entry: not a plan-store entry");
        if (const int64_t version = entry.at("format_version").as_int();
            version != kPlanStoreFormatVersion)
            MYST_THROW(ParseError, "plan store entry: stale schema version " << version);
        // A renamed/copied entry must not impersonate another key: the
        // plan's key has to match the one the file name addressed.
        const Json& plan = entry.at("plan");
        if (PlanKey::from_json(plan.at("key")) != key)
            MYST_THROW(ParseError, "plan store entry: the plan's key differs from the "
                                   "requested key (entry renamed or tampered)");

        // from_json compiles the recorded IR against the caller's trace and
        // throws on kind drift vs this process's op registry — a drifted
        // entry quarantines below instead of silently replaying a different
        // benchmark.
        return ReplayPlan::from_json(plan, std::move(trace));
    } catch (const ConfigError&) {
        throw; // a bad setting (a malformed MYST_FAULT), not a bad entry: keep it
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
        Json entry = Json::object();
        entry.set("format", Json(kEntryFormat));
        entry.set("format_version", Json(kPlanStoreFormatVersion));
        entry.set("plan", plan.to_json());
        atomic_write_file(entry_path(plan.key()), entry.dump_sealed());
        return true;
    } catch (const std::exception& e) {
        MYST_WARN("plan store: writeback to '" << dir_ << "' failed: " << e.what());
        return false;
    }
}

} // namespace mystique::core
